package gmp

import (
	"pfi/internal/rudp"
	"pfi/internal/stack"
)

// MustNew is New for test setup code.
func MustNew(env *stack.Env, net *rudp.Layer, peers []string, opts ...Option) *Daemon {
	d, err := New(env, net, peers, opts...)
	if err != nil {
		panic(err)
	}
	return d
}
