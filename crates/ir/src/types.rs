//! The TinyC/IR type system and flattened memory layouts.
//!
//! Scalar values occupy one *cell* each. Aggregates (structs, arrays) are
//! flattened into consecutive cells. Field-sensitivity in the pointer
//! analysis is *offset-based* and arrays are treated as a whole, exactly as
//! in the paper (Section 4.1): every cell of an object is assigned a *field
//! class*, struct fields get distinct classes, and all cells covered by an
//! array collapse into the single class of the array's first cell.

use crate::ids::{IdxVec, StructId, TypeId};

/// A type in the IR. Interned in a [`TypeTable`]; compare by `TypeId`.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer, the sole arithmetic type (as in TinyC).
    Int,
    /// Pointer to a value of the element type.
    Ptr(TypeId),
    /// A named struct; its fields live in the [`TypeTable`].
    Struct(StructId),
    /// Fixed-size array.
    Array(TypeId, u32),
    /// Pointer-to-function with `n` parameters; all params and the optional
    /// return are scalars in TinyC, so arity is all we need.
    FuncPtr { params: u32, has_ret: bool },
}

/// A struct definition: named, ordered fields.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Source-level name.
    pub name: String,
    /// Ordered `(field name, field type)` pairs.
    pub fields: Vec<(String, TypeId)>,
}

/// What kind of scalar a flattened cell holds (used by the interpreter to
/// produce sensible traps and by the verifier).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// Integer cell.
    Int,
    /// Data-pointer cell.
    Ptr,
    /// Function-pointer cell.
    FuncPtr,
}

/// Flattened layout of a type: per-cell kinds and field classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// One entry per cell.
    pub cells: Vec<CellKind>,
    /// Field class of each cell: distinct classes for distinct struct
    /// fields, one shared class for all cells under any array.
    pub classes: Vec<u32>,
    /// Number of distinct classes (`classes` values are `0..num_classes`).
    pub num_classes: u32,
}

impl Layout {
    /// Total number of scalar cells.
    pub fn size(&self) -> u32 {
        self.cells.len() as u32
    }
}

/// Interner for types and registry of struct definitions.
#[derive(Clone, Debug, Default, Hash)]
pub struct TypeTable {
    types: IdxVec<TypeId, Type>,
    structs: IdxVec<StructId, StructDef>,
    /// Memoized common ids.
    int_ty: Option<TypeId>,
}

impl TypeTable {
    /// Creates an empty table with `Int` pre-interned.
    pub fn new() -> Self {
        let mut t = TypeTable::default();
        t.int_ty = Some(t.intern(Type::Int));
        t
    }

    /// Interns `ty`, returning a stable id.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some((id, _)) = self.types.iter_enumerated().find(|(_, t)| **t == ty) {
            return id;
        }
        self.types.push(ty)
    }

    /// The `Int` type id.
    pub fn int(&self) -> TypeId {
        self.int_ty.expect("TypeTable::new pre-interns Int")
    }

    /// Interns `Ptr(elem)`.
    pub fn ptr_to(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Ptr(elem))
    }

    /// Looks up a type by id.
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id]
    }

    /// Registers a struct definition and returns its id.
    ///
    /// The caller is responsible for not registering two structs with the
    /// same name (the frontend's scope checking enforces this).
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        self.structs.push(def)
    }

    /// Looks up a struct definition.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id]
    }

    /// Replaces the fields of `id` (used for forward-declared structs whose
    /// bodies are filled in a second pass).
    pub fn set_struct_fields(&mut self, id: StructId, fields: Vec<(String, TypeId)>) {
        self.structs[id].fields = fields;
    }

    /// Number of interned types. The incremental relowering path
    /// snapshots this to detect when an edit would have interned a new
    /// type (which invalidates retained type-indexed state).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Forgets every type interned after the first `len`. A caller that
    /// rolls back a relowering uses this to drop the types the rolled-back
    /// body interned; no retained id may point past `len`.
    pub fn truncate(&mut self, len: usize) {
        self.types.truncate(len);
    }

    /// Whether no types are interned (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Number of registered structs.
    pub fn num_structs(&self) -> usize {
        self.structs.len()
    }

    /// Finds a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter_enumerated()
            .find(|(_, d)| d.name == name)
            .map(|(i, _)| i)
    }

    /// Whether `id` is a pointer (data or function) type.
    pub fn is_pointer(&self, id: TypeId) -> bool {
        matches!(self.get(id), Type::Ptr(_) | Type::FuncPtr { .. })
    }

    /// Element type of a pointer/array type, if any.
    pub fn pointee(&self, id: TypeId) -> Option<TypeId> {
        match self.get(id) {
            Type::Ptr(e) | Type::Array(e, _) => Some(*e),
            _ => None,
        }
    }

    /// Number of scalar cells occupied by a value of type `id`.
    pub fn size_in_cells(&self, id: TypeId) -> u32 {
        match self.get(id) {
            Type::Int | Type::Ptr(_) | Type::FuncPtr { .. } => 1,
            Type::Struct(s) => {
                let def = self.structs[*s].clone();
                def.fields.iter().map(|(_, t)| self.size_in_cells(*t)).sum()
            }
            Type::Array(e, n) => self.size_in_cells(*e) * n,
        }
    }

    /// Cell offset of field `idx` within struct type `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a struct type or `idx` is out of range.
    pub fn field_offset(&self, id: TypeId, idx: usize) -> u32 {
        let Type::Struct(s) = self.get(id) else {
            panic!("field_offset on non-struct type {id:?}");
        };
        let def = self.structs[*s].clone();
        def.fields[..idx]
            .iter()
            .map(|(_, t)| self.size_in_cells(*t))
            .sum()
    }

    /// Computes the flattened [`Layout`] of `id`.
    pub fn layout(&self, id: TypeId) -> Layout {
        let mut l = Layout {
            cells: Vec::new(),
            classes: Vec::new(),
            num_classes: 0,
        };
        self.flatten(id, &mut l, false);
        l
    }

    fn flatten(&self, id: TypeId, l: &mut Layout, in_array: bool) {
        match self.get(id) {
            Type::Int => self.push_cell(CellKind::Int, l, in_array),
            Type::Ptr(_) => self.push_cell(CellKind::Ptr, l, in_array),
            Type::FuncPtr { .. } => self.push_cell(CellKind::FuncPtr, l, in_array),
            Type::Struct(s) => {
                let def = self.structs[*s].clone();
                for (_, fty) in &def.fields {
                    self.flatten(*fty, l, in_array);
                }
            }
            Type::Array(e, n) => {
                // All cells under an array share one class: allocate the
                // class at the array boundary, then flatten elements inside
                // the `in_array` regime.
                let (e, n) = (*e, *n);
                let entered_here = !in_array;
                if entered_here {
                    l.num_classes += 1;
                }
                for _ in 0..n {
                    self.flatten(e, l, true);
                }
            }
        }
    }

    fn push_cell(&self, kind: CellKind, l: &mut Layout, in_array: bool) {
        if in_array {
            // Reuse the class opened at the enclosing array boundary.
            l.cells.push(kind);
            l.classes.push(l.num_classes - 1);
        } else {
            l.cells.push(kind);
            l.classes.push(l.num_classes);
            l.num_classes += 1;
        }
    }

    /// Human-readable rendering of a type.
    pub fn display(&self, id: TypeId) -> String {
        match self.get(id) {
            Type::Int => "int".to_string(),
            Type::Ptr(e) => format!("{}*", self.display(*e)),
            Type::Struct(s) => format!("struct {}", self.structs[*s].name),
            Type::Array(e, n) => format!("{}[{}]", self.display(*e), n),
            Type::FuncPtr { params, has_ret } => {
                format!("fn({}){}", params, if *has_ret { " -> int" } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_point() -> (TypeTable, TypeId) {
        let mut t = TypeTable::new();
        let int = t.int();
        let s = t.add_struct(StructDef {
            name: "Point".into(),
            fields: vec![("x".into(), int), ("y".into(), int)],
        });
        let ty = t.intern(Type::Struct(s));
        (t, ty)
    }

    #[test]
    fn interning_deduplicates() {
        let mut t = TypeTable::new();
        let a = t.intern(Type::Int);
        let b = t.intern(Type::Int);
        assert_eq!(a, b);
        let p1 = t.ptr_to(a);
        let p2 = t.ptr_to(b);
        assert_eq!(p1, p2);
        assert_ne!(a, p1);
    }

    #[test]
    fn struct_layout_gives_distinct_classes() {
        let (t, ty) = table_with_point();
        let l = t.layout(ty);
        assert_eq!(l.cells, vec![CellKind::Int, CellKind::Int]);
        assert_eq!(l.classes, vec![0, 1]);
        assert_eq!(l.num_classes, 2);
    }

    #[test]
    fn array_layout_collapses_to_one_class() {
        let mut t = TypeTable::new();
        let int = t.int();
        let arr = t.intern(Type::Array(int, 4));
        let l = t.layout(arr);
        assert_eq!(l.size(), 4);
        assert_eq!(l.classes, vec![0, 0, 0, 0]);
        assert_eq!(l.num_classes, 1);
    }

    #[test]
    fn array_of_structs_collapses_fields_too() {
        let (mut t, point) = table_with_point();
        let arr = t.intern(Type::Array(point, 3));
        let l = t.layout(arr);
        assert_eq!(l.size(), 6);
        assert!(l.classes.iter().all(|&c| c == 0));
        assert_eq!(l.num_classes, 1);
    }

    #[test]
    fn struct_with_array_field_mixes_classes() {
        let mut t = TypeTable::new();
        let int = t.int();
        let arr = t.intern(Type::Array(int, 2));
        let s = t.add_struct(StructDef {
            name: "Buf".into(),
            fields: vec![
                ("len".into(), int),
                ("data".into(), arr),
                ("cap".into(), int),
            ],
        });
        let ty = t.intern(Type::Struct(s));
        let l = t.layout(ty);
        // len | data[0] data[1] | cap
        assert_eq!(l.classes, vec![0, 1, 1, 2]);
        assert_eq!(l.num_classes, 3);
    }

    #[test]
    fn field_offsets_respect_nested_sizes() {
        let (mut t, point) = table_with_point();
        let int = t.int();
        let s = t.add_struct(StructDef {
            name: "Seg".into(),
            fields: vec![
                ("a".into(), point),
                ("b".into(), point),
                ("tag".into(), int),
            ],
        });
        let ty = t.intern(Type::Struct(s));
        assert_eq!(t.field_offset(ty, 0), 0);
        assert_eq!(t.field_offset(ty, 1), 2);
        assert_eq!(t.field_offset(ty, 2), 4);
        assert_eq!(t.size_in_cells(ty), 5);
    }

    #[test]
    fn pointer_cells_are_pointers() {
        let mut t = TypeTable::new();
        let int = t.int();
        let p = t.ptr_to(int);
        let l = t.layout(p);
        assert_eq!(l.cells, vec![CellKind::Ptr]);
    }
}
