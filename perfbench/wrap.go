package main

import (
	"context"
	"time"

	"repro/internal/store"
)

// The traced run measures the store from outside, by timing calls into
// its public interface. The wrapper passes every byte through
// unchanged; wrap_test.go holds it to that.

// timingStore times Get and Put on the store under an engine cache.
type timingStore struct {
	store.Store
	gets, puts *durations
}

func (t timingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	t0 := time.Now()
	p, ok, err := t.Store.Get(ctx, key)
	t.gets.add(time.Since(t0))
	return p, ok, err
}

func (t timingStore) Put(ctx context.Context, key string, payload []byte) error {
	t0 := time.Now()
	err := t.Store.Put(ctx, key, payload)
	t.puts.add(time.Since(t0))
	return err
}
