// Rollup: a monthly roll-up of a run-length encoded date column, in SQL.
// Sect. 8 sketches rolling the date column's IndexTable up from days to
// months and aggregating its value ranges on separate cores; the
// ordinary plan does the roll-up here, computing YEAR and MONTH on the
// way to a parallel aggregate. A date range on the same column takes the
// index rewrite: the filtered IndexTable hands the scan the row ranges
// of the days it keeps, and the aggregate's workers claim them.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"tde"
)

func main() {
	// A year of chronologically loaded fact rows: the date column
	// run-length encodes with one run per day.
	const perDay = 3000
	rng := rand.New(rand.NewSource(3))
	var csv strings.Builder
	csv.WriteString("d,sales\n")
	for m := 1; m <= 12; m++ {
		for day := 1; day <= 28; day++ {
			for k := 0; k < perDay; k++ {
				fmt.Fprintf(&csv, "2013-%02d-%02d,%d\n", m, day, rng.Intn(500))
			}
		}
	}
	db := tde.New()
	if err := db.ImportCSV("facts", []byte(csv.String()), tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}
	cols, err := db.Columns("facts")
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cols {
		if c.Name == "d" {
			fmt.Printf("date column: %s encoded\n", c.Encoding)
		}
	}

	res, err := db.Query(`SELECT YEAR(d) AS y, MONTH(d) AS m, SUM(sales) AS total
	                      FROM facts GROUP BY y, m ORDER BY y, m`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmonthly roll-up plan:", res.Plan)
	for _, row := range res.Rows {
		fmt.Printf("  %s-%02s: %s\n", row[0], row[1], row[2])
	}

	res, err = db.Query(`SELECT MONTH(d) AS m, SUM(sales) AS total FROM facts
	                     WHERE d >= DATE '2013-06-01' AND d < DATE '2013-09-01'
	                     GROUP BY m ORDER BY m`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsummer plan:", res.Plan)
	for _, row := range res.Rows {
		fmt.Printf("  month %2s: %s\n", row[0], row[1])
	}
}
