// Package fmt is a hermetic stand-in for the standard library's fmt,
// just enough surface for the errwrap fixtures. The errwrap analyzer
// matches the callee by its full name "fmt.Errorf", which this package
// provides under the same import path.
package fmt

type wrapped struct{ msg string }

func (w *wrapped) Error() string { return w.msg }

func Errorf(format string, args ...any) error { return &wrapped{msg: format} }
