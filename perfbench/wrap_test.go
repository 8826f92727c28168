package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/store"
)

func TestTimingStorePassesPayloadsThrough(t *testing.T) {
	ctx := context.Background()
	var gets, puts durations
	plain, inner := store.NewMem(), store.NewMem()
	timed := timingStore{Store: inner, gets: &gets, puts: &puts}
	payload := []byte(`{"result":42,"output":[1,2,3]}`)
	for _, s := range []store.Store{plain, timed} {
		if err := s.Put(ctx, "k1", payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"k1", "missing"} {
		p0, ok0, err0 := plain.Get(ctx, key)
		p1, ok1, err1 := timed.Get(ctx, key)
		if !bytes.Equal(p0, p1) || ok0 != ok1 || (err0 == nil) != (err1 == nil) {
			t.Errorf("Get(%s): wrapped %q %v %v, unwrapped %q %v %v", key, p1, ok1, err1, p0, ok0, err0)
		}
	}
	s0, _ := plain.Stat(ctx)
	s1, _ := timed.Stat(ctx)
	if !reflect.DeepEqual(s0, s1) {
		t.Errorf("Stat: wrapped %+v, unwrapped %+v", s1, s0)
	}
	if len(gets.take()) != 2 || len(puts.take()) != 1 {
		t.Fatal("store operations not recorded")
	}
}
