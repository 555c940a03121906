package cache_test

import (
	"fmt"
	"log"

	"dew/internal/cache"
)

func ExampleConfig() {
	cfg, err := cache.NewConfig(256, 4, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg)
	fmt.Println("capacity:", cfg.SizeBytes(), "bytes")
	fmt.Println("index bits:", cfg.IndexBits(), "offset bits:", cfg.OffsetBits())
	// Output:
	// S=256 A=4 B=32 (32KiB)
	// capacity: 32768 bytes
	// index bits: 8 offset bits: 5
}

func ExampleConfig_BlockAddr() {
	cfg, err := cache.NewConfig(8, 2, 16)
	if err != nil {
		log.Fatal(err)
	}
	addr := uint64(0x12345)
	blk := cfg.BlockAddr(addr)
	set, tag := blk&uint64(cfg.Sets-1), blk>>uint(cfg.IndexBits())
	fmt.Printf("block %#x -> set %d, tag %#x\n", blk, set, tag)
	// Output:
	// block 0x1234 -> set 4, tag 0x246
}

func ExamplePaperSpace() {
	space := cache.PaperSpace()
	fmt.Println("configurations:", space.Count())
	fmt.Println("block sizes:", len(space.BlockSizes()), "associativities:", len(space.Assocs()))
	// Output:
	// configurations: 525
	// block sizes: 7 associativities: 5
}
