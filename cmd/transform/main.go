// Command transform reports the doconsider analysis of a loop read from a
// file or stdin: it parses the Fortran-style loop and prints the array the
// loop writes, how many of its reads of that array the run-time inspector
// must resolve, and the arrays that carry the subscripts. A loop that is
// not start-time schedulable — a value read from the written array
// reaches a subscript or an inner-loop bound — is an error.
//
// Usage:
//
//	transform [file.loop]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"doconsider/internal/transform"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "transform:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src []byte
	var err error
	if fs.NArg() > 0 {
		src, err = os.ReadFile(fs.Arg(0))
	} else {
		src, err = io.ReadAll(stdin)
	}
	if err != nil {
		return err
	}
	loop, err := transform.Parse(string(src))
	if err != nil {
		return err
	}
	an, err := transform.Analyze(loop)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "doconsider analysis: writes %q, %d self read(s), %d indirect read(s)\n",
		an.Written, an.SelfReads, an.IndirectReads)
	fmt.Fprintf(w, "subscript-carrying arrays: %v\n", an.IntArrays)
	return nil
}
