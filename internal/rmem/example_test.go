package rmem_test

import (
	"fmt"
	"time"

	"github.com/faasmem/faasmem/internal/memnode"
	"github.com/faasmem/faasmem/internal/rmem"
)

// runtimePages describes n runtime-segment pages of one container.
func runtimePages(n int) rmem.ClassCounts {
	var c rmem.ClassCounts
	c[memnode.ClassRuntime] = n
	return c
}

// Example models an offload followed by a demand fault on the default
// 56 Gbps pool.
func Example() {
	pool := rmem.NewPool(rmem.Config{})
	// 100 MiB page-out of 4 KiB pages.
	_, _, done, err := pool.OffloadDescribed(0, "c0", "fn", runtimePages(100<<20/4096))
	if err != nil {
		panic(err)
	}
	fmt.Printf("offload wire time: ~%dms\n", done.Milliseconds())
	// One 4 KiB demand fault.
	stall, err := pool.FetchRetry(time.Second, "c0", "fn", runtimePages(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("single fault: %dus\n", stall.Total.Microseconds())
	// Output:
	// offload wire time: ~14ms
	// single fault: 15us
}

// ExampleSSDConfig shows why §9 rules SSDs out: the durability-limited
// write bandwidth makes even a small offload take minutes.
func ExampleSSDConfig() {
	ssd := rmem.NewPool(rmem.SSDConfig())
	_, _, done, _ := ssd.OffloadDescribed(0, "c0", "fn", runtimePages(100<<20/4096))
	fmt.Printf("100 MiB to SSD: ~%.0fs\n", done.Seconds())
	// Output:
	// 100 MiB to SSD: ~105s
}
