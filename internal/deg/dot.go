package deg

import (
	"fmt"
	"io"

	"archexplorer/internal/uarch"
)

// WriteDOT renders the graph in Graphviz DOT format, optionally
// highlighting a critical path in red (the paper's Figure 7/9 style).
// Intended for small traces; graphs beyond a few hundred instructions are
// unreadable and are rejected. Path edges are matched by value, once per
// occurrence on the path, so a parallel edge between the same two vertices
// stays in its own colour.
func (g *Graph) WriteDOT(w io.Writer, cp *CriticalPath) error {
	const maxInsts = 512
	if n := len(g.Trace.Records); n > maxInsts {
		return fmt.Errorf("deg: refusing to render %d instructions as DOT (max %d)", n, maxInsts)
	}
	onPath := map[Edge]int{}
	if cp != nil {
		for _, e := range cp.Edges {
			onPath[e]++
		}
	}

	// printf writes until the first error, which WriteDOT returns.
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	printf("digraph deg {\n")
	printf("  rankdir=LR;\n")
	printf("  node [shape=plaintext, fontsize=10];\n")

	// Vertices grouped per instruction.
	emitted := map[VertexID]bool{}
	name := func(v VertexID) string {
		return fmt.Sprintf("\"%s(I%d)@%d\"", v.Stage(), v.Seq(), g.time(v))
	}
	edges := g.Edges()
	for _, e := range edges {
		for _, v := range [2]VertexID{e.From, e.To} {
			if !emitted[v] {
				emitted[v] = true
				printf("  %s;\n", name(v))
			}
		}
	}
	for _, e := range edges {
		attrs := fmt.Sprintf("label=\"%d\"", e.Delay)
		switch e.Kind {
		case EdgeVirtual:
			attrs += ", style=dashed, color=blue"
		case EdgeResource, EdgeFU:
			attrs += ", color=orange"
		case EdgeMispredict:
			attrs += ", color=purple"
		case EdgeData:
			attrs += ", color=gray"
		}
		if e.Res != uarch.ResNone {
			attrs += fmt.Sprintf(", tooltip=\"%s\"", e.Res)
		}
		if onPath[e] > 0 {
			onPath[e]--
			attrs += ", color=red, penwidth=2"
		}
		printf("  %s -> %s [%s];\n", name(e.From), name(e.To), attrs)
	}
	printf("}\n")
	return err
}
