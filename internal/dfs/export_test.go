package dfs

// BlockHeader returns the block list of file p itself, not a copy (nil for a
// missing path or a directory), so a test can tell whose memory a file's
// bytes live in.
func BlockHeader(fs *FS, p string) [][]byte {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil || n.dir {
		return nil
	}
	return n.blocks
}
