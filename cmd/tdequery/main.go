// Command tdequery runs SQL against a single-file TDE database.
//
// Usage:
//
//	tdequery -db extract.tde "SELECT status, COUNT(*) FROM orders GROUP BY status"
//	tdequery -db extract.tde -explain "SELECT ... "   # or "UPDATE/DELETE ...": plan only
//	tdequery -db extract.tde -csv "SELECT ... " > out.csv
//	tdequery -db extract.tde "INSERT INTO orders VALUES ('open', 10, NULL)"
//	tdequery -db extract.tde -i        # interactive shell (\compact merges logged writes)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tde"
)

// exitIfCorrupt prints the structured corruption report and exits with a
// distinct status (3) so scripts can tell "corrupt input database" apart
// from usage errors (2) and bad queries (1).
func exitIfCorrupt(tool string, err error) {
	var rep *tde.CorruptionReport
	if errors.As(err, &rep) {
		fmt.Fprintf(os.Stderr, "%s: input database is corrupt (run tdecheck, or tdecheck -repair):\n%s\n", tool, rep)
		os.Exit(3)
	}
}

// isDML reports whether the statement is a mutation (INSERT, UPDATE or
// DELETE), routed through the transactional write path rather than the
// query engine.
func isDML(sql string) bool {
	f := strings.Fields(sql)
	if len(f) == 0 {
		return false
	}
	switch strings.ToUpper(f[0]) {
	case "INSERT", "UPDATE", "DELETE":
		return true
	}
	return false
}

// parseBytes parses a byte quantity like "64M", "1G" or "65536".
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch u := s[len(s)-1]; u {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(s, "B"), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte quantity %q", s)
	}
	return n * mult, nil
}

// flagOff reads an auto|on|off flag whose only non-default value is off
// ("on" is what "auto" already does; both stay accepted).
func flagOff(name, val string) bool {
	switch val {
	case "auto", "on":
		return false
	case "off":
		return true
	}
	fmt.Fprintf(os.Stderr, "tdequery: %s must be auto, on, or off\n", name)
	os.Exit(2)
	return false
}

func main() {
	dbPath := flag.String("db", "", "database file")
	explain := flag.Bool("explain", false, "print the plan instead of running")
	analyze := flag.Bool("analyze", false, "run the query and print the plan tree annotated with per-operator actuals")
	tracePath := flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the query's operators to this file")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	interactive := flag.Bool("i", false, "interactive shell (reads statements from stdin)")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock limit (e.g. 30s; 0 = none)")
	retry := flag.Int("retry", 0, "retry DML up to N times on write-write conflict, with jittered backoff (0 = fail fast)")
	mem := flag.String("mem", "", "per-query memory budget (e.g. 64M, 1G; empty = unlimited)")
	spillArg := flag.String("spill", "", "per-query spill-to-disk budget (e.g. 256M, 4G; empty = no spilling, budget errors fail fast)")
	workers := flag.Int("workers", 0, "parallel workers per query stage (>0 force, 0 auto, <0 serial)")
	encoded := flag.String("encoded", "auto", "compressed execution: auto/on (encoded routines), off (decode at scan — escape hatch)")
	skip := flag.String("skip", "auto", "zone-map block skipping: auto/on (prune blocks a sargable predicate refutes), off (scan every block — escape hatch)")
	verify := flag.Bool("verify", false, "fully verify every column value at open (catches damage beyond checksums)")
	salvage := flag.Bool("salvage", false, "open a damaged database read-only, quarantining damaged columns")
	flag.Parse()

	if *dbPath == "" || (flag.NArg() == 0 && !*interactive) {
		fmt.Fprintln(os.Stderr, "usage: tdequery -db file.tde [-explain|-csv|-i] [-timeout 30s] [-mem 64M] \"SELECT ...\"")
		os.Exit(2)
	}
	budget, err := parseBytes(*mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdequery:", err)
		os.Exit(2)
	}
	spillBudget, err := parseBytes(*spillArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdequery:", err)
		os.Exit(2)
	}
	qopt := tde.QueryOptions{Timeout: *timeout, MemoryBudget: budget, SpillBudget: spillBudget}
	qopt.Plan.ParallelWorkers = *workers
	qopt.Plan.NoEncodedExec = flagOff("-encoded", *encoded)
	qopt.Plan.NoZoneSkip = flagOff("-skip", *skip)
	db, rep, err := tde.OpenWithOptions(*dbPath, tde.OpenOptions{Verify: *verify, Salvage: *salvage})
	if err != nil {
		exitIfCorrupt("tdequery", err)
		fmt.Fprintln(os.Stderr, "tdequery:", err)
		os.Exit(1)
	}
	if rep != nil {
		fmt.Fprintf(os.Stderr, "tdequery: warning: opened read-only with quarantined data:\n%s\n", rep)
	}
	if *interactive {
		repl(db, *csv, qopt, *retry)
		return
	}
	sql := strings.Join(flag.Args(), " ")
	// -explain never executes: an UPDATE or DELETE prints the plan that
	// would select its rows.
	if *explain {
		p, err := db.ExplainWithOptions(sql, qopt.Plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdequery:", err)
			os.Exit(1)
		}
		fmt.Println(p)
		return
	}
	if isDML(sql) {
		n, err := execDML(db, sql, *retry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdequery:", err)
			os.Exit(1)
		}
		fmt.Printf("(%d rows affected)\n", n)
		return
	}
	res, err := db.QueryContext(context.Background(), sql, qopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdequery:", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := res.SaveTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "tdequery: writing trace:", err)
			os.Exit(1)
		}
	}
	switch {
	case *analyze:
		fmt.Print(res.ExplainAnalyze())
	case *csv:
		printCSV(res)
	default:
		printResult(res)
	}
}

// execDML runs a mutation; with retry > 0 a first-committer-wins
// conflict is retried up to retry additional attempts with jittered
// backoff (db.ExecRetryAttempts) instead of failing fast.
func execDML(db *tde.Database, sql string, retry int) (int, error) {
	if retry <= 0 {
		return db.Exec(sql)
	}
	return db.ExecRetryAttempts(context.Background(), sql, retry+1)
}

// repl reads statements (one per line; "\t" lists tables, "\d table"
// describes one, "\q" quits) and prints results.
func repl(db *tde.Database, csv bool, qopt tde.QueryOptions, retry int) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(os.Stderr, "tde> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\t`:
			for _, n := range db.TableNames() {
				fmt.Printf("%s (%d rows)\n", n, db.Rows(n))
			}
		case strings.HasPrefix(line, `\d `):
			describe(db, strings.TrimSpace(line[3:]))
		case line == `\compact`:
			if err := db.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				fmt.Println("compacted")
			}
		case isDML(line):
			n, err := execDML(db, line, retry)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				break
			}
			fmt.Printf("(%d rows affected)\n", n)
		default:
			res, err := db.QueryContext(context.Background(), line, qopt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				break
			}
			if csv {
				printCSV(res)
			} else {
				printResult(res)
			}
		}
		fmt.Fprint(os.Stderr, "tde> ")
	}
}

func describe(db *tde.Database, table string) {
	cols, err := db.Columns(table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	for _, c := range cols {
		fmt.Printf("%-20s %-9s %s w%d\n", c.Name, c.Type, c.Encoding, c.WidthBytes)
	}
}

func printCSV(res *tde.Result) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	writeCSVRow(w, res.Columns)
	for _, r := range res.Rows {
		writeCSVRow(w, r)
	}
}

func writeCSVRow(w *bufio.Writer, vals []string) {
	for i, v := range vals {
		if i > 0 {
			w.WriteByte(',')
		}
		if strings.ContainsAny(v, ",\"\n") {
			w.WriteByte('"')
			w.WriteString(strings.ReplaceAll(v, `"`, `""`))
			w.WriteByte('"')
		} else {
			w.WriteString(v)
		}
	}
	w.WriteByte('\n')
}

func printResult(res *tde.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	for _, r := range res.Rows {
		for i, v := range r {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	printRow(res.Columns, widths)
	seps := make([]string, len(widths))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	printRow(seps, widths)
	for _, r := range res.Rows {
		printRow(r, widths)
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func printRow(vals []string, widths []int) {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%-*s", widths[i], v)
	}
	fmt.Println(strings.Join(parts, "  "))
}
