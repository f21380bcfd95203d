//go:build aqdebug

package sim

const debugChecks = true // `-tags aqdebug` compiles the cluster's between-round assertions in
