package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// allowDirective is the per-file waiver syntax:
//
//	//ghostlint:allow <check> <reason>
//
// It suppresses every finding of <check> in the file that contains it.
// The reason is mandatory — a waiver with no recorded justification is
// exactly the silent convention-drift this tool exists to prevent.
const allowDirective = "ghostlint:allow"

// rootDirective marks a function the unreachable check must treat as a
// root, in the function's doc comment:
//
//	//ghostlint:root <reason>
//
// Its reason is mandatory too.
const rootDirective = "ghostlint:root"

// rootReason parses one comment as a root directive: ok reports whether
// it is one, reason is its trimmed reason.
func rootReason(c *ast.Comment) (reason string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), rootDirective)
	if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// hasRootDirective reports whether a doc comment carries a root
// directive with a reason.
func hasRootDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if reason, ok := rootReason(c); ok && reason != "" {
			return true
		}
	}
	return false
}

// fileSuppressions scans a file's comments for allow directives and
// returns check -> reason. Malformed directives (unknown check, missing
// reason, a root directive without a reason) are reported through
// report as "ghostlint" diagnostics.
func fileSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) map[string]string {
	var out map[string]string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if reason, ok := rootReason(c); ok {
				if reason == "" {
					report(Diagnostic{Check: "ghostlint", Pos: fset.Position(c.Pos()), Message: "//ghostlint:root: a reason is required"})
				}
				continue
			}
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, allowDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
			check, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			bad := func(msg string) {
				report(Diagnostic{Check: "ghostlint", Pos: fset.Position(c.Pos()), Message: msg})
			}
			switch {
			case check == "":
				bad("malformed //ghostlint:allow: missing check name")
			case !known[check]:
				bad("//ghostlint:allow for unknown check " + strconv.Quote(check))
			case reason == "":
				bad("//ghostlint:allow " + check + ": a reason is required")
			default:
				if out == nil {
					out = map[string]string{}
				}
				out[check] = reason
			}
		}
	}
	return out
}
