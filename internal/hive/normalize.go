package hive

import "strings"

// ParseNormal parses sql as Parse does and also renders, from the same
// token stream, its canonical single-line form for use as a cache key:
// comments and whitespace runs collapse, keywords become upper case,
// identifiers become lower case, and string literals are re-quoted verbatim
// (their case is preserved — 'Beijing' and 'beijing' are different values).
// Two statements normalize equal iff they lex into the same token stream, so
// formatting differences never fragment the cache and semantic differences
// never collide.
func ParseNormal(sql string) (stmt Stmt, norm string, err error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, "", err
	}
	if stmt, err = parseTokens(sql, toks); err != nil {
		return nil, "", err
	}
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokIdent:
			b.WriteString(strings.ToLower(t.text))
		case tokString:
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
		default:
			// Keywords are already upper-cased by the lexer; numbers,
			// operators and punctuation render verbatim.
			b.WriteString(t.text)
		}
	}
	return stmt, b.String(), nil
}

// StatementTables returns the lower-cased names of the tables a statement
// reads or writes, in first-reference order. The serving layer keys cached
// results on these tables' versions and invalidates entries when one of
// them changes.
func StatementTables(stmt Stmt) []string {
	var names []string
	add := func(n string) {
		n = strings.ToLower(n)
		for _, have := range names {
			if have == n {
				return
			}
		}
		names = append(names, n)
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		add(s.From.Table)
		if s.Join != nil {
			add(s.Join.Table.Table)
		}
	case *ExplainStmt:
		add(s.Select.From.Table)
		if s.Select.Join != nil {
			add(s.Select.Join.Table.Table)
		}
	case *TraceStmt:
		add(s.Select.From.Table)
		if s.Select.Join != nil {
			add(s.Select.Join.Table.Table)
		}
	case *CreateTableStmt:
		add(s.Name)
	case *DropTableStmt:
		add(s.Name)
	case *CreateIndexStmt:
		add(s.Table)
	case *DescribeStmt:
		add(s.Table)
	}
	return names
}

// IsReadOnly reports whether executing the statement leaves the warehouse
// unchanged. A SELECT with an INSERT OVERWRITE DIRECTORY sink writes to the
// filesystem and counts as a mutation.
func IsReadOnly(stmt Stmt) bool {
	switch s := stmt.(type) {
	case *SelectStmt:
		return s.InsertDir == ""
	case *ShowTablesStmt, *DescribeStmt, *ExplainStmt, *TraceStmt:
		return true
	default:
		return false
	}
}
