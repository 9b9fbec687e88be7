// Flights: a realistic analytic session over the synthetic FAA on-time
// data set — the paper's "more typical of the data sets actually analysed
// by our customers" corpus, where every string column has a small domain
// and the whole table compresses dramatically.
package main

import (
	"bytes"
	"fmt"
	"log"

	"tde"
	"tde/internal/flights"
)

func main() {
	var buf bytes.Buffer
	if err := flights.New(500000, 1).Write(&buf); err != nil {
		log.Fatal(err)
	}
	db := tde.New()
	if err := db.ImportCSV("flights", buf.Bytes(), tde.DefaultImportOptions()); err != nil {
		log.Fatal(err)
	}
	logical, physical, _ := db.Sizes("flights")
	fmt.Printf("imported %d rows: text %dK -> logical %dK -> physical %dK\n",
		db.Rows("flights"), buf.Len()/1024, logical/1024, physical/1024)

	// Mean delays by carrier: string group keys ride on sorted heaps.
	res, err := db.Query(`SELECT Carrier, COUNT(*), AVG(DepDelay), MEDIAN(DepDelay)
	                      FROM flights GROUP BY Carrier ORDER BY Carrier`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndeparture delay by carrier (count / avg / median):")
	for _, row := range res.Rows[:6] {
		fmt.Printf("  %-3s %8s %8.8s %8s\n", row[0], row[1], row[2], row[3])
	}
	fmt.Printf("  ... (%d carriers)\n", len(res.Rows))

	// Seasonal pattern: month roll-up of a sorted date column.
	res, err = db.Query(`SELECT MONTH(FlightDate) AS m, AVG(ArrDelay)
	                     FROM flights GROUP BY m ORDER BY m`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\narrival delay by month:")
	for _, row := range res.Rows {
		fmt.Printf("  %2s: %.8s\n", row[0], row[1])
	}

	// A selective route query: an equality filter on a small-domain string
	// is evaluated once per heap entry, and each row costs one token lookup.
	res, err = db.Query(`SELECT COUNT(*), AVG(ArrDelay) FROM flights
	                     WHERE Origin = 'SEA'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSEA departures: %s flights, avg arrival delay %.8s (plan: %s)\n",
		res.Rows[0][0], res.Rows[0][1], res.Plan)
}
