// Command graphgen generates the synthetic evaluation graphs (or custom
// ones) and converts between the two on-disk formats: the text edge list
// and the KMB2 block file.
//
//	graphgen -preset friendster -out friendster.kmb2
//	graphgen -type grid -rows 100 -cols 100 -weighted -out road.el
//	graphgen -type rmat -scale 16 -edgefactor 16 > web.el
//	graphgen convert -in web.el -out web.kmb2
//	graphgen convert -in web.kmb2 -out web.el -workers 4
//
// Formats are never named on the command line. An input is KMB2 when it
// starts with the KMB2 magic and a text edge list otherwise; an output is
// KMB2 when its path ends in .kmb2 and text otherwise (generate with no
// -out writes text to stdout).
//
// convert streams: the input is read block by block (text shards or KMB2
// blocks) and never materialized as a whole edge list. Converting to
// KMB2 is a single sequential scan; converting to text runs the two-scan
// streaming CSR build. Node IDs are never renumbered: the output holds
// the input's IDs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
)

// errUsage marks a bad invocation; main exits 2 for it, like
// flag.ExitOnError does for a bad flag.
var errUsage = errors.New("usage")

func main() {
	name, run, args := "", runGenerate, os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "convert":
			name, run, args = "convert: ", runConvert, args[1:]
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %s%v\n", name, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	var (
		preset     = fs.String("preset", "", "paper preset: road-europe, friendster, clueweb12, wdc12")
		typ        = fs.String("type", "", "custom generator: grid, rmat, er, chain, communities")
		rows       = fs.Int("rows", 100, "grid rows")
		cols       = fs.Int("cols", 100, "grid cols")
		scale      = fs.Int("scale", 14, "rmat: log2 of node count")
		edgeFactor = fs.Int("edgefactor", 16, "rmat: edges per node")
		nodes      = fs.Int("nodes", 10000, "er/chain: node count")
		edges      = fs.Int("edges", 50000, "er: edge count")
		k          = fs.Int("k", 8, "communities: community count")
		size       = fs.Int("size", 100, "communities: community size")
		weighted   = fs.Bool("weighted", true, "attach edge weights")
		seed       = fs.Int64("seed", 42, "generator seed")
		out        = fs.String("out", "", "output path: KMB2 if it ends in .kmb2, else text (stdout if empty)")
	)
	fs.Parse(args)

	var g *graph.Graph
	switch {
	case *preset != "":
		g = gen.Build(gen.Preset(*preset))
	case *typ == "grid":
		g = gen.Grid(*rows, *cols, *weighted, *seed)
	case *typ == "rmat":
		g = gen.RMAT(*scale, *edgeFactor, *weighted, *seed)
	case *typ == "er":
		g = gen.ErdosRenyi(*nodes, *edges, *weighted, *seed)
	case *typ == "chain":
		g = gen.Chain(*nodes, *weighted, *seed)
	case *typ == "communities":
		g = gen.Communities(*k, *size, 6, 1, *weighted, *seed)
	default:
		return fmt.Errorf("%w: need -preset or -type", errUsage)
	}

	fmt.Fprintf(os.Stderr, "generated: %s, diameter~%d\n", g.ComputeStats(), gen.ApproxDiameter(g))
	return writeGraph(*out, g, 0)
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in         = fs.String("in", "", "input path (required)")
		out        = fs.String("out", "", "output path (required): KMB2 if it ends in .kmb2, else text")
		nodes      = fs.Int("nodes", 0, "node count for text inputs without a nodes directive")
		workers    = fs.Int("workers", 0, "parallel workers for the streaming build (0 = all cores)")
		blockEdges = fs.Int("block-edges", 0, "kmb2 output block capacity (0 = default)")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("%w: need -in and -out", errUsage)
	}
	src, err := openSource(*in, *nodes)
	if err != nil {
		return err
	}
	defer src.Close()

	if isKMB2Path(*out) {
		// Format conversion without a CSR build: one sequential scan,
		// blocks repacked to the output capacity.
		return copyToKMB2(src, *out, *blockEdges)
	}
	g, err := graph.NewStreamBuilder(src).SetWorkers(*workers).Build()
	if err != nil {
		return err
	}
	return writeGraph(*out, g, *blockEdges)
}

func isKMB2Path(path string) bool { return strings.HasSuffix(path, ".kmb2") }

// source is a streaming input that owns its file.
type source interface {
	graph.BlockSource
	Close() error
}

// openSource opens path as KMB2 when it carries the KMB2 magic and as a
// text edge list otherwise; nodes supplies the node count for text
// without a nodes directive.
func openSource(path string, nodes int) (source, error) {
	kmb2, err := graph.IsKMB2File(path)
	if err != nil {
		return nil, err
	}
	if kmb2 {
		return graph.OpenKMB2(path)
	}
	return graph.OpenTextConfig(path, graph.TextConfig{NumNodes: nodes})
}

func copyToKMB2(src graph.BlockSource, out string, blockEdges int) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	kw, err := graph.NewKMB2Writer(f, src.NumNodes(), src.Weighted(), blockEdges)
	if err != nil {
		return err
	}
	var blk graph.EdgeBlock
	for i := 0; i < src.NumBlocks(); i++ {
		if err := src.ReadBlock(i, &blk); err != nil {
			return err
		}
		if err := kw.AppendBlock(&blk); err != nil {
			return err
		}
	}
	if err := kw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// writeGraph writes g to out: KMB2 (blockEdges per block, 0 = default)
// when out ends in .kmb2, a text edge list otherwise, and text to stdout
// when out is empty. A failed write or close is an error.
func writeGraph(out string, g *graph.Graph, blockEdges int) error {
	if isKMB2Path(out) {
		return graph.SaveKMB2(out, g, blockEdges)
	}
	if out == "" {
		return graph.WriteEdgeList(os.Stdout, g)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, g); err != nil {
		return err
	}
	return f.Close()
}
