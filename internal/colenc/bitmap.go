package colenc

import (
	"encoding/binary"
	"fmt"
)

// Roaring-style bitmap streams (tag EncBitmap) hold a 0/1 stream — the paper's
// §6.3.1 cites Roaring for the XOR-materialized binary failure columns — as
// the set of positions holding 1, chunked into 2^16 blocks, each block in one
// of three container layouts:
//
//	array  — sorted uint16 positions (sparse blocks)
//	bitmap — 8 KiB raw bitset (dense, irregular blocks)
//	runs   — (start, length-1) pairs (long runs)
//
// Layout: count varint | #blocks varint | per block: key varint, kind byte,
// payload. Writers no longer produce them — under the codec layer's DEFLATE
// and range passes they won at most a few bytes an archive — but archives
// written before that still hold them, so they decode.
const (
	containerArray byte = iota
	containerBitmap
	containerRuns
)

const blockBits = 1 << 16

// DecodeBitmapMax decodes a bitmap stream, rejecting counts above max (max <
// 0 disables the bound). Before allocating the output it also requires the
// buffer to be at least large enough to hold every declared block's minimal
// framing, so a short corrupt buffer cannot command a huge allocation.
func DecodeBitmapMax(buf []byte, max int) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bitmap count", ErrCorrupt)
	}
	if err := checkCount(n, max); err != nil {
		return nil, err
	}
	pos := sz
	nBlocks, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bitmap block count", ErrCorrupt)
	}
	pos += sz
	if want := (n + blockBits - 1) / blockBits; nBlocks != want && !(n == 0 && nBlocks == 0) {
		return nil, fmt.Errorf("%w: %d blocks for %d values", ErrCorrupt, nBlocks, n)
	}
	// Every block needs at least a key varint, a kind byte, and one payload
	// byte (a container count varint): 3 bytes of framing minimum.
	if nBlocks > uint64(len(buf)-pos)/3 {
		return nil, fmt.Errorf("%w: %d blocks exceed buffer", ErrCorrupt, nBlocks)
	}
	out := make([]int64, n)
	for b := uint64(0); b < nBlocks; b++ {
		key, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 || key != b {
			return nil, fmt.Errorf("%w: bitmap block key", ErrCorrupt)
		}
		pos += sz
		if pos >= len(buf) {
			return nil, fmt.Errorf("%w: missing container kind", ErrCorrupt)
		}
		kind := buf[pos]
		pos++
		base := int(b) * blockBits
		blockLen := blockBits
		if base+blockLen > int(n) {
			blockLen = int(n) - base
		}
		switch kind {
		case containerArray:
			cnt, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 || cnt > uint64(len(buf)-pos-sz)/2 {
				return nil, fmt.Errorf("%w: array container", ErrCorrupt)
			}
			pos += sz
			for i := uint64(0); i < cnt; i++ {
				p := int(binary.LittleEndian.Uint16(buf[pos:]))
				pos += 2
				if p >= blockLen {
					return nil, fmt.Errorf("%w: array position %d in %d-block", ErrCorrupt, p, blockLen)
				}
				out[base+p] = 1
			}
		case containerBitmap:
			l, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 || int(l) != blockLen {
				return nil, fmt.Errorf("%w: bitmap container length", ErrCorrupt)
			}
			pos += sz
			nb := (blockLen + 7) / 8
			if len(buf)-pos < nb {
				return nil, fmt.Errorf("%w: bitmap container", ErrCorrupt)
			}
			for i := 0; i < blockLen; i++ {
				if buf[pos+i/8]&(1<<uint(i%8)) != 0 {
					out[base+i] = 1
				}
			}
			pos += nb
		case containerRuns:
			cnt, sz := binary.Uvarint(buf[pos:])
			if sz <= 0 || cnt > uint64(len(buf)-pos-sz)/4 {
				return nil, fmt.Errorf("%w: run container", ErrCorrupt)
			}
			pos += sz
			for i := uint64(0); i < cnt; i++ {
				start := int(binary.LittleEndian.Uint16(buf[pos:]))
				length := int(binary.LittleEndian.Uint16(buf[pos+2:])) + 1
				pos += 4
				if start+length > blockLen {
					return nil, fmt.Errorf("%w: run [%d,%d) in %d-block", ErrCorrupt, start, start+length, blockLen)
				}
				for k := 0; k < length; k++ {
					out[base+start+k] = 1
				}
			}
		default:
			return nil, fmt.Errorf("%w: container kind %d", ErrCorrupt, kind)
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bitmap bytes", ErrCorrupt, len(buf)-pos)
	}
	return out, nil
}
