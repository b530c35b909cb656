// Package lib is the golden fixture for the testonly analyzer: the
// exported API of an internal package, part of it reached only by its
// own tests.
package lib

// Used is called by app, a non-test package of the module.
func Used() {}

// Unused has no caller at all.
func Unused() {} // want `exported func Unused has no non-test caller`

// TestedOnly is called only from lib_test.go.
func TestedOnly() {} // want `exported func TestedOnly has no non-test caller`

// ForCaller is called only by the caller module.
func ForCaller() {}

// Name is a type of this package in Greet's signature.
type Name string

// Greeter is named by app.
type Greeter struct{}

// Greet is never named outside lib, but Greeter satisfies app's
// interface with it. app sees its own copy of Name, so the match needs
// that copy of Greeter too.
func (Greeter) Greet(to Name) string { return "hello " + string(to) }

// Wave satisfies no interface and has no caller.
func (Greeter) Wave() {} // want `exported method Greeter.Wave has no non-test caller`

// Limit is read inside the package itself.
const Limit = 3

func limit() int { return Limit }

// Unread is never read.
var Unread = limit() // want `exported var Unread has no non-test caller`

// Unnamed is never named.
type Unnamed struct{} // want `exported type Unnamed has no non-test caller`

// Seam is acknowledged as a seam other packages' tests need.
//
//sapphire:allow testonly the fixture's stand-in for a fault hook that tests of other packages use
func Seam() {}

// Unreasoned's allow comment has no reason, so it suppresses nothing
// and is itself reported.
func Unreasoned() {} /* want `exported func Unreasoned has no non-test caller` `malformed //sapphire:allow` */ //sapphire:allow testonly
