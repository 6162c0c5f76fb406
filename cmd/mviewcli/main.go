// Command mviewcli is an interactive shell over the mview engine:
// create relations and materialized views, run transactions, inspect
// view contents and maintenance statistics, and test updates for
// §4 irrelevance.
//
// Usage:
//
//	mviewcli                 # interactive prompt, in-memory database
//	mviewcli -data ./mydb    # durable database (commit log + checkpoints)
//	mviewcli -group-commit [-group-max N] [-group-window 2ms]  # commit-group scheduler
//	mviewcli < script        # batch mode
//
// Type "help" at the prompt for the command language.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"mview"
	"mview/internal/cli"
)

func main() {
	data := flag.String("data", "", "durable database directory (empty = in-memory)")
	groupCommit := flag.Bool("group-commit", false, "coalesce concurrent transactions into commit groups")
	groupMax := flag.Int("group-max", 0, "maximum transactions per commit group (0 = default)")
	groupWindow := flag.Duration("group-window", 2*time.Millisecond, "group leader's wait for followers under concurrency (0 = no wait)")
	segBytes := flag.Int64("wal-segment-bytes", 0, "commit-log segment rotation threshold in bytes (0 = 64 MiB default; durable mode only)")
	flag.Parse()

	var opts []mview.Option
	if *groupCommit {
		opts = append(opts, mview.WithGroupCommit(*groupMax, *groupWindow))
	}
	if *segBytes > 0 {
		opts = append(opts, mview.WithSegmentSize(*segBytes))
	}

	interactive := isTerminal()
	var s *cli.Session
	if *data != "" {
		var err error
		s, err = cli.NewDurableSession(*data, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mviewcli: %v\n", err)
			os.Exit(1)
		}
	} else {
		s = cli.NewSession(opts...)
	}
	defer s.Close()
	if interactive {
		fmt.Println("mview — materialized views with efficient differential maintenance (SIGMOD 1986)")
		fmt.Println("type 'help' for the command language")
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for {
		if interactive {
			fmt.Print("mview> ")
		}
		if !in.Scan() {
			break
		}
		out, done := s.Exec(in.Text())
		if out != "" {
			fmt.Println(out)
		}
		if done {
			return
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "mviewcli: %v\n", err)
		os.Exit(1)
	}
}

// isTerminal reports whether stdin looks interactive (char device).
func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
