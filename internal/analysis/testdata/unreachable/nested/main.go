// Command nested lives in a module of its own, which the loader never
// type-checks. Every name it spells roots the functions of that name.
package main

func main() { NestedOnly() }

// NestedOnly is declared here so the file compiles on its own.
func NestedOnly() {}
