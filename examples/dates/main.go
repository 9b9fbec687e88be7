// Dates: the paper's canonical dimension workload. A date column is
// dictionary-compressed (Sect. 3.4.3), so a range predicate is evaluated
// once per entry of the small date domain: the filter builds a truth
// table over the dictionary's tokens and then tests each row's token
// with one lookup (the dict-filter routine, Sect. 4.1's invisible join
// without the join).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"tde"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	var csv strings.Builder
	csv.WriteString("d,sales\n")
	for i := 0; i < 300000; i++ {
		m := 1 + rng.Intn(12)
		day := 1 + rng.Intn(28)
		fmt.Fprintf(&csv, "2013-%02d-%02d,%d\n", m, day, 10+rng.Intn(500))
	}

	db := tde.New()
	if err := db.ImportCSV("facts", []byte(csv.String()), tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}

	// Convert the date column into a dictionary-compressed dimension: a
	// sorted scalar dictionary of ~336 distinct days, with the row data
	// reduced to narrow tokens.
	if err := db.CompressColumn("facts", "d"); err != nil {
		log.Fatal(err)
	}
	cols, _ := db.Columns("facts")
	for _, c := range cols {
		if c.Name == "d" {
			fmt.Printf("date column: dictionary of %d days, token width %d byte(s)\n",
				c.DictionarySize, c.WidthBytes)
		}
	}

	// Range filter: the plan is Scan => Filter, and the filter runs the
	// dict-filter routine over the date tokens.
	res, err := db.Query(`SELECT COUNT(*), SUM(sales) FROM facts
	                      WHERE d >= DATE '2013-06-01' AND d < DATE '2013-09-01'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsummer query plan:", res.Plan)
	fmt.Printf("summer: %s rows, %s total sales\n", res.Rows[0][0], res.Rows[0][1])

	// Month roll-up: TRUNC_MONTH is evaluated on the way to a 12-group
	// aggregation (Sect. 8 sketches doing this on the IndexTable itself).
	res, err = db.Query(`SELECT MONTH(d) AS m, SUM(sales) FROM facts
	                     GROUP BY m ORDER BY m`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsales by month:")
	for _, row := range res.Rows {
		fmt.Printf("  month %2s: %s\n", row[0], row[1])
	}
}
