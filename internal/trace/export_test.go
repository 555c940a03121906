package trace

// Hooks into the package's internals for its external tests.

// CanonicalDin is canonicalDin: n accesses rendered as DinWriter
// renders them, with random kinds and the locality of a real trace.
var CanonicalDin = canonicalDin

// NewDinChunkParser returns a function that parses text of the given
// line count as one .din chunk through the chunk kernel, at a block
// size of 2^off, reusing one chunk's columns from call to call.
func NewDinChunkParser(off uint, kinds bool) func(text []byte, lines int) error {
	dst := &runChunk{}
	return func(text []byte, lines int) error {
		_, err := parseDinChunk(dst, text, 1, lines, off, kinds)
		return err
	}
}
