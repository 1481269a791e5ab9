package store

import (
	"fmt"
	"maps"
	"strings"

	"tagdm/internal/model"
)

// Column identifies one attribute column of the expanded tuple relation.
// User attributes come first in schema order, then item attributes.
type Column struct {
	// Side is SideUser or SideItem.
	Side Side
	// Index is the attribute position within its schema.
	Index int
}

// Side distinguishes user columns from item columns.
type Side uint8

// Sides of the expanded tuple.
const (
	SideUser Side = iota
	SideItem
)

func (s Side) String() string {
	if s == SideUser {
		return "user"
	}
	return "item"
}

// Store is the expanded, dictionary-encoded tuple relation G plus bitmap
// posting lists per (column, value). It is built once from a Dataset and
// supports incremental Append (paper Section 8 future work).
type Store struct {
	UserSchema *model.Schema
	ItemSchema *model.Schema
	Vocab      *model.Vocabulary

	// Column-major attribute storage, one slice per expanded column.
	userCols [][]model.ValueCode
	itemCols [][]model.ValueCode

	// Per-tuple payload.
	users   []int32
	items   []int32
	tags    [][]model.TagID
	ratings []float64

	// postings[column key] = bitmap of tuple ids having that value.
	postings map[postingKey]*Bitmap

	// frozen[column key] is the copy of that posting list the last Freeze
	// published, and touched holds the keys appended to since; Freeze
	// re-copies only those. Both stay nil until the first Freeze, so bulk
	// builds pay nothing for the bookkeeping.
	frozen  map[postingKey]*Bitmap
	touched map[postingKey]struct{}

	n int
}

type postingKey struct {
	side  Side
	index int
	value model.ValueCode
}

// New builds a store from a validated dataset by denormalizing each tagging
// action into an expanded tuple carrying its user's and item's attributes.
func New(d *model.Dataset) (*Store, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		UserSchema: d.UserSchema,
		ItemSchema: d.ItemSchema,
		Vocab:      d.Vocab,
		userCols:   make([][]model.ValueCode, d.UserSchema.Len()),
		itemCols:   make([][]model.ValueCode, d.ItemSchema.Len()),
		postings:   make(map[postingKey]*Bitmap),
	}
	for _, a := range d.Actions {
		s.appendTuple(d, a)
	}
	// Bulk build done: pick each posting list's physical layout. Sparse
	// lists over large corpora compress; dense seed corpora keep the flat
	// fast path.
	s.Optimize()
	return s, nil
}

// Optimize re-selects the representation of every posting list by the
// density policy in compressed.go. Kernels are exact in either layout, so
// this never changes query results — only their cost shape. Call it after
// bulk builds; per-Append re-selection would thrash (Freeze lays out its
// copies the same way).
func (s *Store) Optimize() {
	for _, bm := range s.postings {
		bm.Optimize()
	}
}

// ForceCompression converts every posting list to the compressed (on) or
// dense (off) layout regardless of density — a test and benchmark hook for
// exercising both layouts on the same corpus. It rewrites bitmaps in place,
// so never call it on a Freeze view.
func (s *Store) ForceCompression(on bool) {
	for _, bm := range s.postings {
		if on {
			bm.ToCompressed()
		} else {
			bm.ToDense()
		}
	}
}

// CompressionStats reports how many posting lists exist and how many
// currently use the container-compressed layout.
func (s *Store) CompressionStats() (lists, compressed int) {
	for _, bm := range s.postings {
		lists++
		if bm.IsCompressed() {
			compressed++
		}
	}
	return lists, compressed
}

func (s *Store) appendTuple(d *model.Dataset, a model.TaggingAction) {
	id := s.n
	u := d.Users[a.User]
	it := d.Items[a.Item]
	for ci := range s.userCols {
		s.userCols[ci] = append(s.userCols[ci], u.Attrs[ci])
	}
	for ci := range s.itemCols {
		s.itemCols[ci] = append(s.itemCols[ci], it.Attrs[ci])
	}
	s.users = append(s.users, a.User)
	s.items = append(s.items, a.Item)
	s.tags = append(s.tags, a.Tags)
	s.ratings = append(s.ratings, a.Rating)
	s.n++
	for ci, c := range u.Attrs {
		s.posting(postingKey{SideUser, ci, c}).Set(id)
	}
	for ci, c := range it.Attrs {
		s.posting(postingKey{SideItem, ci, c}).Set(id)
	}
}

func (s *Store) posting(k postingKey) *Bitmap {
	bm, ok := s.postings[k]
	if !ok {
		bm = NewBitmap(s.n + 1)
		s.postings[k] = bm
	}
	if s.frozen != nil {
		s.touched[k] = struct{}{}
	}
	// Grow-before-Set keeps the universe ahead of every appended id in
	// either layout; nothing here unions a larger universe into a smaller
	// one, so this path never depended on Or's (formerly stale) growth.
	bm.Grow(s.n + 1)
	return bm
}

// Append adds one more tagging action from the same dataset incrementally,
// maintaining all posting lists. The dataset must be the one the store was
// built from (schemas and vocabulary are shared).
func (s *Store) Append(d *model.Dataset, a model.TaggingAction) error {
	if a.User < 0 || int(a.User) >= len(d.Users) {
		return fmt.Errorf("store: append references unknown user %d", a.User)
	}
	if a.Item < 0 || int(a.Item) >= len(d.Items) {
		return fmt.Errorf("store: append references unknown item %d", a.Item)
	}
	s.appendTuple(d, a)
	return nil
}

// Freeze returns an immutable view of the store as it is now, which later
// Appends to s cannot touch. Its cost is proportional to what changed since
// the previous Freeze, not to the store:
//
//   - column vectors and per-tuple payloads are append-only, so the view
//     aliases them capped at the current length; an append past the cap
//     never writes into the view's prefix;
//   - a posting list no append has touched since the previous Freeze is
//     the very bitmap that Freeze published. Touched lists, and every list
//     on the first Freeze, get a fresh copy in the layout Optimize picks.
//     The layout depends only on a list's count and universe, neither of
//     which moves while it is untouched, so a shared copy is the copy a
//     deep clone would make.
//
// Schemas and the vocabulary are shared: they are append-only dictionaries
// and safe for concurrent use. The live bitmaps are never handed out, so
// Append keeps mutating them in place. The view's bitmaps are shared with
// other views: never Append to it or ForceCompression it. Freeze is what
// makes snapshot-isolated readers possible while a Maintainer keeps
// inserting (see internal/incremental.Maintainer.Snapshot).
func (s *Store) Freeze() *Store {
	n := s.n
	out := &Store{
		UserSchema: s.UserSchema,
		ItemSchema: s.ItemSchema,
		Vocab:      s.Vocab,
		userCols:   make([][]model.ValueCode, len(s.userCols)),
		itemCols:   make([][]model.ValueCode, len(s.itemCols)),
		users:      s.users[:n:n],
		items:      s.items[:n:n],
		tags:       s.tags[:n:n],
		ratings:    s.ratings[:n:n],
		n:          n,
	}
	for ci, col := range s.userCols {
		out.userCols[ci] = col[:n:n]
	}
	for ci, col := range s.itemCols {
		out.itemCols[ci] = col[:n:n]
	}
	if s.frozen == nil {
		s.frozen = make(map[postingKey]*Bitmap, len(s.postings))
		s.touched = make(map[postingKey]struct{})
		for k := range s.postings {
			s.touched[k] = struct{}{}
		}
	}
	for k := range s.touched {
		s.frozen[k] = s.postings[k].Clone().Optimize()
	}
	clear(s.touched)
	out.postings = maps.Clone(s.frozen)
	return out
}

// Len is the number of expanded tuples.
func (s *Store) Len() int { return s.n }

// TupleUser returns the user id of tuple t.
func (s *Store) TupleUser(t int) int32 { return s.users[t] }

// TupleItem returns the item id of tuple t.
func (s *Store) TupleItem(t int) int32 { return s.items[t] }

// TupleTags returns the tag ids of tuple t. The slice is shared; callers
// must not modify it.
func (s *Store) TupleTags(t int) []model.TagID { return s.tags[t] }

// TupleRating returns the rating of tuple t (0 if absent).
func (s *Store) TupleRating(t int) float64 { return s.ratings[t] }

// Value returns the value code of tuple t in the given column.
func (s *Store) Value(t int, c Column) model.ValueCode {
	if c.Side == SideUser {
		return s.userCols[c.Index][t]
	}
	return s.itemCols[c.Index][t]
}

// Columns returns every expanded column in order: user attributes then item
// attributes.
func (s *Store) Columns() []Column {
	out := make([]Column, 0, len(s.userCols)+len(s.itemCols))
	for i := range s.userCols {
		out = append(out, Column{SideUser, i})
	}
	for i := range s.itemCols {
		out = append(out, Column{SideItem, i})
	}
	return out
}

// ColumnName renders a column as its attribute name.
func (s *Store) ColumnName(c Column) string {
	if c.Side == SideUser {
		return s.UserSchema.Attr(c.Index).Name
	}
	return s.ItemSchema.Attr(c.Index).Name
}

// ColumnAttr returns the attribute dictionary backing a column.
func (s *Store) ColumnAttr(c Column) *model.Attribute {
	if c.Side == SideUser {
		return s.UserSchema.Attr(c.Index)
	}
	return s.ItemSchema.Attr(c.Index)
}

// Term is one equality condition column = value.
type Term struct {
	Col   Column
	Value model.ValueCode
}

// Predicate is a conjunction of equality terms, i.e. a structural group
// description such as {gender=male, state=new york}.
type Predicate struct {
	Terms []Term
}

// ParsePredicate builds a predicate from name=value strings, resolving
// attribute names against the user schema first and then the item schema.
// A value that is not in the dictionary yields an always-empty predicate
// term (the value matches no tuple), reported via ok=false on Eval's bitmap
// being empty rather than an error, because queries over absent values are
// legitimate.
func (s *Store) ParsePredicate(conds map[string]string) (Predicate, error) {
	p := Predicate{}
	for name, val := range conds {
		var col Column
		var attr *model.Attribute
		if i := s.UserSchema.AttrIndex(name); i >= 0 {
			col = Column{SideUser, i}
			attr = s.UserSchema.Attr(i)
		} else if i := s.ItemSchema.AttrIndex(name); i >= 0 {
			col = Column{SideItem, i}
			attr = s.ItemSchema.Attr(i)
		} else {
			return Predicate{}, fmt.Errorf("store: no attribute named %q", name)
		}
		code, ok := attr.Lookup(val)
		if !ok {
			code = -1 // matches nothing
		}
		p.Terms = append(p.Terms, Term{Col: col, Value: code})
	}
	return p, nil
}

// Eval returns the bitmap of tuple ids satisfying every term of p. The
// result is a fresh bitmap the caller may mutate. An empty predicate matches
// every tuple. Only the result is allocated: postings intersect directly
// into it, with no per-term Clone+Grow intermediates.
func (s *Store) Eval(p Predicate) *Bitmap {
	acc := NewBitmap(s.n)
	if len(p.Terms) == 0 {
		for i := 0; i < s.n; i++ {
			acc.Set(i)
		}
		return acc
	}
	for ti, t := range p.Terms {
		bm, ok := s.postings[postingKey{t.Col.Side, t.Col.Index, t.Value}]
		if !ok {
			return NewBitmap(s.n)
		}
		if ti == 0 {
			acc.CopyFrom(bm)
			continue
		}
		acc.And(bm)
	}
	return acc
}

// Posting returns the posting list of column c = value v, or nil when no
// tuple has that value. The bitmap is the store's own: read it, never
// modify it.
func (s *Store) Posting(c Column, v model.ValueCode) *Bitmap {
	return s.postings[postingKey{c.Side, c.Index, v}]
}

// Count returns the number of tuples matching p without materializing ids
// beyond one bitmap.
func (s *Store) Count(p Predicate) int { return s.Eval(p).Count() }

// Describe renders a predicate as {name=value, ...} in column order.
func (s *Store) Describe(p Predicate) string {
	parts := make([]string, 0, len(p.Terms))
	for _, t := range p.Terms {
		attr := s.ColumnAttr(t.Col)
		parts = append(parts, attr.Name+"="+attr.Value(t.Value))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Support computes the group support of a set of tuple bitmaps
// (Definition 1): the number of tuples belonging to at least one group.
func Support(groups []*Bitmap) int { return UnionCount(groups) }
