package blockcodec

import "fmt"

// Raw is the identity codec: blocks are stored uncompressed. It is the
// default, keeps the frame layer (lengths + CRC) without any CPU cost, and
// is the baseline the LZ codec is benchmarked against.
type Raw struct{}

// Name returns "raw".
func (Raw) Name() string { return "raw" }

// Encode appends src unchanged.
func (Raw) Encode(dst, src []byte) []byte { return append(dst, src...) }

// Decode appends src unchanged, verifying the frame's expected length.
func (Raw) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	return append(dst, src...), rawLenErr(src, rawLen)
}

// rawLenErr is the error of a raw block whose stored length is not the
// frame's raw length, nil when they agree.
func rawLenErr(src []byte, rawLen int) error {
	if len(src) != rawLen {
		return fmt.Errorf("blockcodec: raw block is %d bytes, frame says %d", len(src), rawLen)
	}
	return nil
}
