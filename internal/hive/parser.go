package hive

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Parse parses one HiveQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(src, tokens)
}

// parseTokens parses one statement from src's tokens.
func parseTokens(src string, tokens []token) (Stmt, error) {
	p := &parser{tokens: tokens, src: src}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input after statement")
	}
	return stmt, nil
}

type parser struct {
	tokens []token
	pos    int
	src    string
	depth  int // expression nesting, bounded by maxExprDepth
}

// maxExprDepth bounds expression recursion (aggregate calls nest via
// parseExpr) so a pathological statement fails with a parse error instead
// of exhausting the stack. Real queries in the paper's listings nest twice.
const maxExprDepth = 200

func (p *parser) cur() token   { return p.tokens[p.pos] }
func (p *parser) text() string { return strings.TrimSpace(p.src) } // a DDL node's Text
func (p *parser) next() token  { t := p.tokens[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("hive: parse error near position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(tokKeyword, "CREATE"):
		p.next()
		if p.accept(tokKeyword, "TABLE") {
			return p.parseCreateTable()
		}
		if p.accept(tokKeyword, "INDEX") {
			return p.parseCreateIndex()
		}
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	case p.at(tokKeyword, "DROP"):
		p.next()
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name, Text: p.text()}, nil
	case p.at(tokKeyword, "SHOW"):
		p.next()
		if _, err := p.expect(tokKeyword, "TABLES"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case p.at(tokKeyword, "DESCRIBE"):
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: name}, nil
	case p.at(tokKeyword, "INSERT"):
		p.next()
		if _, err := p.expect(tokKeyword, "OVERWRITE"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "DIRECTORY"); err != nil {
			return nil, err
		}
		dir := p.cur()
		if dir.kind != tokString {
			return nil, p.errf("expected directory string")
		}
		p.next()
		if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		sel.InsertDir = dir.text
		return sel, nil
	case p.at(tokKeyword, "SELECT"):
		p.next()
		return p.parseSelectBody()
	case p.at(tokKeyword, "EXPLAIN"):
		p.next()
		if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel}, nil
	case p.at(tokKeyword, "TRACE"):
		p.next()
		if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		return &TraceStmt{Select: sel}, nil
	default:
		return nil, p.errf("unsupported statement starting with %q", p.cur().text)
	}
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []storage.Column
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokIdent && t.kind != tokKeyword {
			return nil, p.errf("expected type for column %s", cname)
		}
		p.next()
		kind, err := storage.ParseKind(t.text)
		if err != nil {
			return nil, p.errf("column %s: %v", cname, err)
		}
		cols = append(cols, storage.Column{Name: cname, Kind: kind})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	partitionBy := ""
	if p.accept(tokKeyword, "PARTITIONED") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		pc, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(cols, func(c storage.Column) bool { return strings.EqualFold(c.Name, pc) }) {
			return nil, p.errf("partition column %q not in column list", pc)
		}
		partitionBy = pc
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	stored := "TEXTFILE"
	if p.accept(tokKeyword, "STORED") {
		if _, err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokIdent {
			return nil, p.errf("expected file format")
		}
		p.next()
		stored = strings.ToUpper(t.text)
		if stored != "TEXTFILE" && stored != "RCFILE" {
			return nil, p.errf("unsupported format %q (TEXTFILE or RCFILE)", t.text)
		}
	}
	return &CreateTableStmt{Name: name, Cols: cols, PartitionBy: partitionBy, Stored: stored, Text: p.text()}, nil
}

func (p *parser) parseCreateIndex() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	handler := p.cur()
	if handler.kind != tokString {
		return nil, p.errf("expected handler string after AS")
	}
	p.next()
	// Optional Hive boilerplate.
	if p.accept(tokKeyword, "WITH") {
		if _, err := p.expect(tokKeyword, "DEFERRED"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "REBUILD"); err != nil {
			return nil, err
		}
	}
	props := map[string]string{}
	if p.accept(tokKeyword, "IDXPROPERTIES") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		for {
			k := p.cur()
			if k.kind != tokString {
				return nil, p.errf("expected property key string")
			}
			p.next()
			if _, err := p.expect(tokOp, "="); err != nil {
				return nil, err
			}
			v := p.cur()
			if v.kind != tokString {
				return nil, p.errf("expected property value string")
			}
			p.next()
			props[k.text] = v.text
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	return &CreateIndexStmt{Name: name, Table: table, Cols: cols, Handler: handler.text, Props: props, Text: p.text()}, nil
}

func (p *parser) parseSelectBody() (*SelectStmt, error) {
	s := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Select = append(s.Select, item)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.accept(tokKeyword, "JOIN") {
		jt, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		left, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		right, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		s.Join = &JoinClause{Table: jt, Left: left, Right: right}
	}
	if p.accept(tokKeyword, "WHERE") {
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			s.Where = append(s.Where, cmp...)
			if p.accept(tokKeyword, "AND") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// SELECT * projects all columns.
	if p.at(tokPunct, "*") {
		p.next()
		return SelectItem{Expr: ColRef{Name: "*"}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(tokIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

// parseExpr parses products of primaries (the only scalar operator needed
// by the paper's queries is '*').
func (p *parser) parseExpr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxExprDepth {
		return nil, p.errf("expression nested deeper than %d levels", maxExprDepth)
	}
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPunct, "*") {
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = Mul{L: left, R: right}
	}
	return left, nil
}

var aggFuncs = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		return Lit{Value: numberValue(t.text)}, nil
	case tokString:
		p.next()
		return Lit{Value: stringValue(t.text)}, nil
	case tokIdent:
		upper := strings.ToUpper(t.text)
		if aggFuncs[upper] && p.tokens[p.pos+1].kind == tokPunct && p.tokens[p.pos+1].text == "(" {
			p.next() // func name
			p.next() // (
			call := AggCall{Func: upper}
			if p.accept(tokPunct, "*") {
				call.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Arg = arg
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return p.parseColRef()
	default:
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}

func (p *parser) parseColRef() (ColRef, error) {
	name, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(tokPunct, ".") {
		col, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Qualifier: name, Name: col}, nil
	}
	return ColRef{Name: name}, nil
}

// parseComparison parses col OP literal, literal OP col, col BETWEEN a AND b
// (rewritten to two comparisons), or col IN (v1, ..., vn).
func (p *parser) parseComparison() ([]Comparison, error) {
	// Left side: column or literal.
	if p.cur().kind == tokIdent {
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if p.accept(tokKeyword, "IN") {
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			var vals []storage.Value
			for {
				v, err := p.literal()
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return []Comparison{{Col: col, Op: "IN", Vals: vals}}, nil
		}
		if p.accept(tokKeyword, "BETWEEN") {
			lo, err := p.literal()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "AND"); err != nil {
				return nil, err
			}
			hi, err := p.literal()
			if err != nil {
				return nil, err
			}
			return []Comparison{
				{Col: col, Op: ">=", Val: lo},
				{Col: col, Op: "<=", Val: hi},
			}, nil
		}
		op := p.cur()
		if op.kind != tokOp {
			return nil, p.errf("expected comparison operator, found %q", op.text)
		}
		p.next()
		val, err := p.literal()
		if err != nil {
			return nil, err
		}
		return []Comparison{{Col: col, Op: normalizeOp(op.text), Val: val}}, nil
	}
	// literal OP column: flip.
	val, err := p.literal()
	if err != nil {
		return nil, err
	}
	op := p.cur()
	if op.kind != tokOp {
		return nil, p.errf("expected comparison operator, found %q", op.text)
	}
	p.next()
	col, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	return []Comparison{{Col: col, Op: flipOp(normalizeOp(op.text)), Val: val}}, nil
}

func (p *parser) literal() (storage.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		return numberValue(t.text), nil
	case tokString:
		p.next()
		return stringValue(t.text), nil
	default:
		return storage.Value{}, p.errf("expected literal, found %q", t.text)
	}
}

func numberValue(text string) storage.Value {
	if !strings.ContainsAny(text, ".eE") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return storage.Int64(i)
		}
	}
	f, _ := strconv.ParseFloat(text, 64)
	return storage.Float64(f)
}

// stringValue keeps date-shaped strings convertible: the executor coerces
// them against the column kind, so the parser stores the raw string.
func stringValue(text string) storage.Value { return storage.Str(text) }

func normalizeOp(op string) string {
	if op == "<>" {
		return "!="
	}
	return op
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	default:
		return op
	}
}
