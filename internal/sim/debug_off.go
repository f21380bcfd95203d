//go:build !aqdebug

package sim

const debugChecks = false // the assertions it guards compile to nothing
