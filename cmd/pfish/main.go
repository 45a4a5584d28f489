// Command pfish is an interactive shell (and script runner) for the PFI
// tool's Tcl-subset scripting language — the same interpreter that runs
// inside the send/receive filters. It is useful for developing and testing
// filter scripts before installing them in an experiment.
//
// Usage:
//
//	pfish                       # REPL on stdin
//	pfish script.tcl            # run a script file
//	pfish -c 'expr 1+2'         # evaluate one command string
//	pfish -world                # scenario shell: world/faultload/tcp_* commands
//	pfish -resume cell.pfi      # replay a campaign cell, then drop to the shell
//
// The PFI message commands (msg_type, xDrop, ...) are not available here —
// they only exist inside a filter run — but the full core language
// (control flow, lists, strings, expr, procs) is.
//
// With -world the shell speaks the full conformance scenario language and
// adds world-snapshot builtins: `snapshot ?name?` marks the current world
// state, `restore ?name?` rewinds everything — scheduler, network, protocol
// stacks, trace log, interpreter variables — back to the mark, `snapshots`
// lists marks, and `verdicts` prints recorded check results. -resume
// implies -world: it replays the named .pfi scenario (e.g. a campaign cell
// or a fuzzer repro), captures a `start` mark at its end state, and hands
// over the prompt — `restore start` rewinds any interactive poking back to
// the freshly-replayed state, so one replay serves many probing sessions.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pfi/internal/conformance"
	"pfi/internal/script"
)

func main() {
	command := flag.String("c", "", "evaluate this command string and exit")
	world := flag.Bool("world", false, "scenario shell with world/faultload/probe commands and snapshot/restore")
	resume := flag.String("resume", "", "replay this .pfi scenario, snapshot its end state as `start`, then prompt (implies -world)")
	flag.Parse()

	var in *script.Interp
	if *world || *resume != "" {
		in = conformance.NewShell(conformance.Options{}).Interp()
	} else {
		in = script.New()
	}
	in.SetOutput(os.Stdout)

	if *resume != "" {
		sc, err := conformance.Load(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfish:", err)
			os.Exit(1)
		}
		if _, err := in.Eval(sc.Source); err != nil {
			fmt.Fprintf(os.Stderr, "pfish: replaying %s: %v\n", *resume, err)
			os.Exit(1)
		}
		if _, err := in.Eval("snapshot start"); err != nil {
			fmt.Fprintf(os.Stderr, "pfish: snapshot after %s: %v\n", *resume, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pfish: replayed %s; `restore start` rewinds to this point\n", sc.Name)
	}

	switch {
	case *command != "":
		if err := evalAndPrint(in, *command); err != nil {
			fmt.Fprintln(os.Stderr, "pfish:", err)
			os.Exit(1)
		}
	case flag.NArg() >= 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfish:", err)
			os.Exit(1)
		}
		if err := evalAndPrint(in, string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "pfish:", err)
			os.Exit(1)
		}
	default:
		repl(in)
	}
}

func evalAndPrint(in *script.Interp, src string) error {
	res, err := in.Eval(src)
	if err != nil {
		return err
	}
	if res != "" {
		fmt.Println(res)
	}
	return nil
}

// repl reads commands line by line, accumulating continuation lines while
// a brace, bracket, quote or ${name} is still open.
func repl(in *script.Interp) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pending strings.Builder
	prompt := "pfish% "
	fmt.Print(prompt)
	for sc.Scan() {
		line := sc.Text()
		if pending.Len() == 0 && strings.TrimSpace(line) == "exit" {
			return
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		src := pending.String()
		if unfinished(src) {
			fmt.Print("    ... ")
			continue
		}
		pending.Reset()
		if strings.TrimSpace(src) != "" {
			if res, err := in.Eval(src); err != nil {
				fmt.Println("error:", err)
			} else if res != "" {
				fmt.Println(res)
			}
		}
		fmt.Print(prompt)
	}
}

// unfinished asks the parser whether src stopped inside a construct that
// more input could close. Any other parse error is the script's to report.
func unfinished(src string) bool {
	var pe *script.ParseError
	_, err := script.Parse(src)
	return errors.As(err, &pe) && pe.Incomplete
}
