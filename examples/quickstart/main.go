// Quickstart: import a CSV, look at the physical design the engine chose,
// run a few queries, and round-trip through the single-file format.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"tde"
)

func main() {
	// A small sales extract. Types, separator and header are inferred.
	var csv strings.Builder
	csv.WriteString("region,product,units,price,day\n")
	regions := []string{"west", "east", "north", "south"}
	products := []string{"widget", "gadget", "sprocket"}
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&csv, "%s,%s,%d,%d.%02d,2014-%02d-%02d\n",
			regions[i%len(regions)], products[(i/7)%len(products)],
			1+i%9, 10+i%50, i%100, i%12+1, i%28+1)
	}

	db := tde.New()
	if err := db.ImportCSV("sales", []byte(csv.String()), tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}

	// The import pipeline encoded every column and extracted metadata.
	fmt.Println("physical design:")
	cols, _ := db.Columns("sales")
	for _, c := range cols {
		fmt.Printf("  %-8s %-5s encoded as %-6s at width %d (%d -> %d bytes)\n",
			c.Name, c.Type, c.Encoding, c.WidthBytes, c.LogicalBytes, c.PhysicalBytes)
	}
	logical, physical, _ := db.Sizes("sales")
	fmt.Printf("table: logical %dK, physical %dK\n\n", logical/1024, physical/1024)

	// Aggregate. The string filter is evaluated once per entry of the
	// region heap into a token truth table (the dict-filter routine);
	// check the plan.
	res, err := db.Query(`SELECT product, SUM(units), AVG(price)
	                      FROM sales WHERE region = 'west'
	                      GROUP BY product ORDER BY product`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", res.Plan)
	for _, row := range res.Rows {
		fmt.Println(" ", strings.Join(row, "  "))
	}

	// Persist as a single file and read it back.
	path := filepath.Join(os.TempDir(), "quickstart.tde")
	if err := db.Save(path); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	db2, err := tde.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	res, _ = db2.Query("SELECT COUNT(*) FROM sales")
	fmt.Printf("\nreloaded from %s: %s rows\n", path, res.Rows[0][0])
}
