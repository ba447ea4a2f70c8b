package diskstore

import (
	"container/list"
	"fmt"
	"os"
	"sync"
)

// blockSize is the cache page size. 64 KiB amortizes syscall cost over
// ~256K packed bases per read while keeping even a minimal budget
// (one block) useful for the sequential scans GST construction does.
const blockSize = 64 << 10

// blockCache pages the data file through a bounded LRU of fixed-size
// blocks. It is the only resident memory proportional to anything —
// and it is proportional to its budget, not to the input.
type blockCache struct {
	f    *os.File
	size int64 // data file size; the final block may be short

	mu     sync.Mutex
	max    int // max resident blocks, ≥ 1
	lru    *list.List
	byOff  map[int64]*list.Element
	hits   uint64
	misses uint64
}

type cacheBlock struct {
	off int64
	b   []byte
}

func newBlockCache(f *os.File, size int64, budgetBytes int64) *blockCache {
	max := int(budgetBytes / blockSize)
	if max < 1 {
		max = 1
	}
	return &blockCache{
		f:     f,
		size:  size,
		max:   max,
		lru:   list.New(),
		byOff: make(map[int64]*list.Element),
	}
}

// readAt fills dst from the data file at off, faulting blocks in as
// needed. It copies under the lock, because a miss by another reader
// may reuse the buffer of any block it evicts. Offsets are
// pre-validated by Open, so running past EOF is a real I/O error, not
// a caller bug.
func (c *blockCache) readAt(dst []byte, off int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(dst) > 0 {
		blockOff := off - off%blockSize
		b, err := c.block(blockOff)
		if err != nil {
			return err
		}
		n := copy(dst, b[off-blockOff:])
		if n == 0 {
			return fmt.Errorf("diskstore: read past end of data file at offset %d", off)
		}
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// block returns the cached block at blockOff, reading it on a miss
// into the buffer (and list element) of the least recently used block
// once the budget is full. The caller holds mu.
func (c *blockCache) block(blockOff int64) ([]byte, error) {
	if el, ok := c.byOff[blockOff]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheBlock).b, nil
	}
	c.misses++
	n := blockSize
	if rem := c.size - blockOff; rem < int64(n) {
		n = int(rem)
	}
	if n <= 0 {
		return nil, fmt.Errorf("diskstore: block offset %d beyond data size %d", blockOff, c.size)
	}
	var el *list.Element
	if c.lru.Len() < c.max {
		el = c.lru.PushFront(&cacheBlock{})
	} else {
		el = c.lru.Back()
		delete(c.byOff, el.Value.(*cacheBlock).off)
		c.lru.MoveToFront(el)
	}
	blk := el.Value.(*cacheBlock)
	if cap(blk.b) < n {
		blk.b = make([]byte, n)
	}
	blk.off, blk.b = blockOff, blk.b[:n]
	if _, err := c.f.ReadAt(blk.b, blockOff); err != nil {
		c.lru.Remove(el)
		return nil, err
	}
	c.byOff[blockOff] = el
	return blk.b, nil
}

func (c *blockCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
