// Fixture for the ctxflow analyzer: the package path contains the
// "hive" segment, so it is in scope.
package hive

import "context"

func work(ctx context.Context) error {
	_ = ctx
	return nil
}

func mintsBackground() error {
	ctx := context.Background() // want `context\.Background\(\) in library code`
	return work(ctx)
}

func mintsTODO() error {
	return work(context.TODO()) // want `context\.TODO\(\) in library code`
}

// Package-level initialisers can hide a Background() too.
var _ = work(context.Background()) // want `context\.Background\(\) in library code`

func threadsCtx(ctx context.Context) error {
	return work(ctx) // ok: ctx threaded through
}

func suppressed() error {
	//dgflint:ignore ctxflow fixture exercising the suppression path
	ctx := context.Background()
	return work(ctx)
}
