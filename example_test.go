package tde_test

import (
	"fmt"
	"log"

	"tde"
)

// Example demonstrates the import-query round trip: the engine infers the
// schema, encodes every column, and groups the rows by region.
func Example() {
	csv := []byte(`region,amount
west,10
east,25
west,5
east,40
west,15
`)
	db := tde.New()
	if err := db.ImportCSV("sales", csv, tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1])
	}
	// Output:
	// east 65
	// west 30
}

// ExampleDatabase_CompressColumn dictionary-compresses a date dimension so
// range filters are evaluated once per distinct date (Sect. 3.4.3 / 4.1).
func ExampleDatabase_CompressColumn() {
	csv := []byte(`d,v
2013-01-01,1
2013-01-02,2
2013-01-01,3
2013-01-03,4
`)
	db := tde.New()
	if err := db.ImportCSV("facts", csv, tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}
	if err := db.CompressColumn("facts", "d"); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM facts WHERE d = DATE '2013-01-01'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0][0])
	// Output:
	// 2
}
