//go:build !race

package kdc

const raceEnabled = false
