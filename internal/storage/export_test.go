package storage

// DecodeColStats exposes the column statistics decoder, which also returns
// the column kinds a stream's header names, to the external tests.
var DecodeColStats = decodeColStats
