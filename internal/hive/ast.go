package hive

import (
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Stmt is any parsed HiveQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type, ...)
// [PARTITIONED BY (col)] [STORED AS fmt].
type CreateTableStmt struct {
	Name string
	Cols []storage.Column
	// PartitionBy names the partitioning column (Hive-style directory per
	// value; unlike Hive, the column also appears in the column list).
	PartitionBy string
	Stored      string // "TEXTFILE" (default) or "RCFILE"
	Text        string // the statement as the parser read it (see DDL)
}

// CreateIndexStmt is the paper's Listing 3 shape:
// CREATE INDEX name ON TABLE tbl(cols) AS 'handler' IDXPROPERTIES (...).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Cols    []string
	Handler string
	Props   map[string]string
	Text    string // the statement as the parser read it (see DDL)
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Name string
	Text string // the statement as the parser read it (see DDL)
}

// ShowTablesStmt is SHOW TABLES.
type ShowTablesStmt struct{}

// DescribeStmt is DESCRIBE tbl.
type DescribeStmt struct{ Table string }

// ExplainStmt is EXPLAIN SELECT ...: plan the query — access path, GFU
// slices, projected columns and bytes, shard targets — without running it.
type ExplainStmt struct {
	Select *SelectStmt
}

// TraceStmt is TRACE SELECT ...: run the query and return its span tree —
// per-layer wall and sim durations, access path, per-shard read volumes —
// instead of its rows. The runtime twin of EXPLAIN's static plan.
type TraceStmt struct {
	Select *SelectStmt
}

// SelectStmt covers the paper's query listings: projections/aggregations,
// one optional equi-join, a conjunctive WHERE, GROUP BY, LIMIT, and an
// optional INSERT OVERWRITE DIRECTORY sink.
type SelectStmt struct {
	// InsertDir, when non-empty, writes results to that directory
	// (Listing 6).
	InsertDir string
	Select    []SelectItem
	From      TableRef
	Join      *JoinClause
	Where     []Comparison // conjunction
	GroupBy   []ColRef
	Limit     int // 0 = no limit
}

// SelectItem is one projection: an expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Matches reports whether qualifier refers to this table reference.
func (t TableRef) Matches(qualifier string) bool {
	if qualifier == "" {
		return true
	}
	return strings.EqualFold(qualifier, t.Alias) || strings.EqualFold(qualifier, t.Table)
}

// JoinClause is JOIN tbl alias ON left.col = right.col.
type JoinClause struct {
	Table TableRef
	// LeftCol and RightCol are the equi-join columns, resolved to the
	// FROM-side and JOIN-side tables respectively during planning.
	Left, Right ColRef
}

// Expr is a scalar expression: column references, literals, products and
// aggregate calls.
type Expr interface{ expr() }

// ColRef is a possibly qualified column reference.
type ColRef struct {
	Qualifier string // table or alias, may be empty
	Name      string
}

func (ColRef) expr() {}

// String renders the reference as written.
func (c ColRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Lit is a literal value.
type Lit struct{ Value storage.Value }

func (Lit) expr() {}

// Mul is a product of two expressions (sum(price*discount)).
type Mul struct{ L, R Expr }

func (Mul) expr() {}

// AggCall is an aggregate function application.
type AggCall struct {
	Func string // upper-case: SUM COUNT AVG MIN MAX
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

func (AggCall) expr() {}

// Comparison is col OP literal (the predicate shape of all the paper's
// queries). Op is one of < <= > >= = != IN. For IN, Vals holds the value
// list and Val is unused; a row matches when its cell equals any of them.
type Comparison struct {
	Col  ColRef
	Op   string
	Val  storage.Value
	Vals []storage.Value
}

// DDL reports a DDL statement's table and source text — what a shard's log
// records, and Warehouse.ApplyDDL parses again; ok is false for any other
// statement. Only the parser builds DDL nodes, so each carries its text.
func DDL(stmt Stmt) (table, text string, ok bool) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return s.Name, s.Text, true
	case *DropTableStmt:
		return s.Name, s.Text, true
	case *CreateIndexStmt:
		return s.Table, s.Text, true
	}
	return "", "", false
}

func (CreateTableStmt) stmt() {}
func (CreateIndexStmt) stmt() {}
func (DropTableStmt) stmt()   {}
func (ShowTablesStmt) stmt()  {}
func (DescribeStmt) stmt()    {}
func (SelectStmt) stmt()      {}
func (ExplainStmt) stmt()     {}
func (TraceStmt) stmt()       {}
