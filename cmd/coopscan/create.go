package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"coopscan/internal/engine"
)

// runCreate is the `coopscan create` subcommand: it generates a table file
// ahead of time — NSM, DSM, or compressed DSM — so serve runs can point
// -file at it instead of generating on first use. For compressed tables it
// reports the per-column schemes and the stored footprint against the raw
// DSM equivalent.
func runCreate(args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	file := fs.String("file", "", "table file path to create (required; refuses to overwrite)")
	dsm := fs.Bool("dsm", false, "store the table column-major (DSM)")
	compress := fs.Bool("compress", false, "store DSM extents compressed with per-column schemes and zonemaps (implies -dsm)")
	rows := fs.Int64("rows", 1_500_000, "table rows")
	tpc := fs.Int64("tuples-per-chunk", 32768, "tuples per chunk")
	seed := fs.Uint64("seed", 1, "generator seed")
	fs.Parse(args)

	if *file == "" {
		fmt.Fprintln(os.Stderr, "coopscan create: -file is required")
		os.Exit(2)
	}
	if _, err := os.Stat(*file); err == nil {
		fmt.Fprintf(os.Stderr, "coopscan create: %s already exists (refusing to overwrite)\n", *file)
		os.Exit(1)
	}
	format := engine.NSM
	if *dsm || *compress {
		format = engine.DSM
	}
	start := time.Now()
	var tf *engine.TableFile
	var err error
	if *compress {
		tf, err = engine.CreateCompressed(*file, *rows, *tpc, *seed)
	} else {
		tf, err = engine.CreateFormat(*file, format, *rows, *tpc, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan create:", err)
		os.Exit(1)
	}
	defer tf.Close()

	raw := int64(tf.NumChunks()) * tf.ChunkBytes()
	fmt.Printf("created %s: %s, %d rows, %d chunks × %s in %v\n",
		tf.Path(), describeFormat(tf), tf.Rows(), tf.NumChunks(), fmtBytes(tf.ChunkBytes()),
		time.Since(start).Round(time.Millisecond))
	if !tf.Compressed() {
		fmt.Printf("size: %s\n", fmtBytes(raw))
		return
	}
	fmt.Printf("size: %s stored of %s raw (%.2fx compression)\n",
		fmtBytes(tf.StoredBytes()), fmtBytes(raw), float64(raw)/float64(tf.StoredBytes()))
	for j := 0; j < engine.NumCols; j++ {
		if s, ok := tf.ColScheme(j); ok {
			fmt.Printf("  col %-2d %-10s\n", j, s)
		} else {
			fmt.Printf("  col %-2d %-10s\n", j, "identity")
		}
	}
}

// describeFormat renders a table file's physical format for reports,
// distinguishing compressed DSM from raw.
func describeFormat(tf *engine.TableFile) string {
	if tf.Compressed() {
		return fmt.Sprintf("%s compressed", tf.Format())
	}
	return tf.Format().String()
}
