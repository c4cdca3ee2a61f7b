package spcube_test

import (
	"fmt"
	"log"

	"github.com/spcube/spcube"
)

// Build a tiny sales relation, compute its data cube with SP-Cube, and query
// a few c-groups — the running example of the paper's introduction.
func ExampleCompute() {
	rel := spcube.NewRelation([]string{"name", "city", "year"}, "sales")
	rows := []struct {
		name, city, year string
		sales            int64
	}{
		{"laptop", "Rome", "2012", 2000},
		{"laptop", "Paris", "2012", 1500},
		{"laptop", "Rome", "2013", 900},
		{"printer", "Rome", "2013", 300},
		{"printer", "Paris", "2012", 250},
		{"keyboard", "Paris", "2013", 120},
		{"keyboard", "Rome", "2012", 180},
	}
	for _, r := range rows {
		rel.AddRow([]string{r.name, r.city, r.year}, r.sales)
	}

	c, err := spcube.Compute(rel,
		spcube.Aggregate(spcube.Sum),
		spcube.Workers(4),
		spcube.Seed(1),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cube has %d c-groups across %d cuboids in %d MapReduce rounds\n\n",
		c.NumGroups(), 1<<rel.NumDims(), c.Stats().Rounds)

	// Point lookups: "*" means the dimension is aggregated away.
	queries := [][]string{
		{"*", "*", "*"},            // total sales
		{"laptop", "*", "*"},       // all laptop sales
		{"laptop", "*", "2012"},    // laptop sales in 2012
		{"*", "Rome", "*"},         // everything sold in Rome
		{"laptop", "Rome", "2012"}, // the finest granularity
		{"printer", "Rome", "2012"},
	}
	for _, q := range queries {
		v, ok := c.Value(q...)
		fmt.Printf("sales(%s,%s,%s) = %v (found=%v)\n", q[0], q[1], q[2], v, ok)
	}

	// Whole cuboids: group-by name and year.
	fmt.Println("\nsales by (name, year):")
	groups, err := c.Cuboid("name", "year")
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range groups {
		fmt.Printf("  (%s, %s, %s) -> %v\n", g.Dims[0], g.Dims[1], g.Dims[2], g.Value)
	}

	// Output:
	// cube has 31 c-groups across 8 cuboids in 2 MapReduce rounds
	//
	// sales(*,*,*) = 5250 (found=true)
	// sales(laptop,*,*) = 4400 (found=true)
	// sales(laptop,*,2012) = 3500 (found=true)
	// sales(*,Rome,*) = 3380 (found=true)
	// sales(laptop,Rome,2012) = 2000 (found=true)
	// sales(printer,Rome,2012) = 0 (found=false)
	//
	// sales by (name, year):
	//   (laptop, *, 2012) -> 3500
	//   (laptop, *, 2013) -> 900
	//   (printer, *, 2012) -> 250
	//   (printer, *, 2013) -> 300
	//   (keyboard, *, 2012) -> 180
	//   (keyboard, *, 2013) -> 120
}
