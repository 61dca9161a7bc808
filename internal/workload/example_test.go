package workload_test

import (
	"fmt"
	"math/rand"

	"repro/internal/keys"
	"repro/internal/workload"
)

// Building a skewed query batch from a Table I dataset spec.
func Example() {
	spec, err := workload.SpecByName("zipfian", 0.001)
	if err != nil {
		panic(err)
	}
	gen := spec.Build()
	r := rand.New(rand.NewSource(1))
	batch := workload.Batch(gen, r, 10000, 0.25) // 25% updates

	s, i, d, _, _ := keys.CountOps(batch)
	fmt.Println("searches > updates:", s > i+d)
	frac, _ := workload.Coverage(gen, rand.New(rand.NewSource(1)), 50000, 100)
	fmt.Println("top-100 keys cover more than a third of draws:", frac > 0.33)
	// Output:
	// searches > updates: true
	// top-100 keys cover more than a third of draws: true
}

// The synthetic taxi generator reproduces the paper's Fig. 4(a) skew:
// the top 1000 of 4,194,304 grid cells draw about 68% of visits.
func ExampleNewTaxi() {
	gen := workload.NewTaxi()
	frac, _ := workload.Coverage(gen, rand.New(rand.NewSource(8)), 200000, 1000)
	fmt.Printf("cells: %d, top-1000 coverage ~0.68: %v\n",
		gen.KeyRange(), frac > 0.63 && frac < 0.74)
	// Output: cells: 4194304, top-1000 coverage ~0.68: true
}
