//! The IR object model: a region-based, SSA, multi-dialect IR stored in a
//! generational arena owned by a [`Context`].
//!
//! Structure mirrors MLIR/xDSL:
//!
//! - An **operation** has operands (SSA values), results (SSA values it
//!   defines), named attributes, and nested **regions**.
//! - A **region** is an ordered list of **blocks**.
//! - A **block** has block arguments (SSA values) and an ordered list of
//!   operations.
//! - A **value** is either an operation result or a block argument; the
//!   context maintains use-lists so `replace_all_uses_with` is cheap.
//!
//! All entities are referenced by generational ids ([`OpId`], [`BlockId`],
//! [`RegionId`], [`ValueId`]); stale ids (referring to erased entities)
//! panic on access with a descriptive message, which turns use-after-erase
//! bugs in transforms into immediate failures instead of silent corruption.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::attributes::Attribute;
use crate::types::Type;

/// A generational arena slot index. `gen` disambiguates reuse of `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawId {
    index: u32,
    generation: u32,
}

impl fmt::Display for RawId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}g{}", self.index, self.generation)
    }
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) RawId);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of an operation.
    OpId
);
define_id!(
    /// Identifier of a block.
    BlockId
);
define_id!(
    /// Identifier of a region.
    RegionId
);
define_id!(
    /// Identifier of an SSA value (op result or block argument).
    ValueId
);

impl ValueId {
    /// The value's arena slot and the generation it holds that slot in.
    pub(crate) fn slot(self) -> (usize, u32) {
        (self.0.index as usize, self.0.generation)
    }
}

/// The hasher of [`IdMap`]: arena ids are indices this program makes,
/// never input from outside, so a multiply-and-rotate mix spreads them
/// well enough, at a fraction of SipHash's cost — the interpreter looks
/// one up for every operand it reads. The verifier's rule registry keys
/// op names with it too: the dialects' own names, never input either.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A hash map keyed by arena ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of arena ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One slot of a generational arena: the generation survives vacancy so a
/// reused slot invalidates outstanding ids.
enum Slot<T> {
    Occupied { generation: u32, value: T },
    Vacant { next_generation: u32 },
}

/// A generic generational arena.
struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Arena<T> {
    fn insert(&mut self, value: T) -> RawId {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = match slot {
                Slot::Vacant { next_generation } => *next_generation,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            *slot = Slot::Occupied { generation, value };
            RawId { index, generation }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            RawId {
                index,
                generation: 0,
            }
        }
    }

    fn get(&self, id: RawId, what: &str) -> &T {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => value,
            _ => panic!("stale or invalid {what} id {id}"),
        }
    }

    fn get_mut(&mut self, id: RawId, what: &str) -> &mut T {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => value,
            _ => panic!("stale or invalid {what} id {id}"),
        }
    }

    fn contains(&self, id: RawId) -> bool {
        matches!(
            self.slots.get(id.index as usize),
            Some(Slot::Occupied { generation, .. }) if *generation == id.generation
        )
    }

    fn remove(&mut self, id: RawId, what: &str) -> T {
        match self.slots.get_mut(id.index as usize) {
            Some(slot @ Slot::Occupied { .. }) => {
                let generation = match slot {
                    Slot::Occupied { generation, .. } => *generation,
                    Slot::Vacant { .. } => unreachable!(),
                };
                if generation != id.generation {
                    panic!("stale {what} id {id} (remove)");
                }
                let old = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        next_generation: generation + 1,
                    },
                );
                self.free.push(id.index);
                self.live -= 1;
                match old {
                    Slot::Occupied { value, .. } => value,
                    Slot::Vacant { .. } => unreachable!(),
                }
            }
            _ => panic!("stale or invalid {what} id {id} (remove)"),
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn iter_ids(&self) -> impl Iterator<Item = RawId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { generation, .. } => Some(RawId {
                index: i as u32,
                generation: *generation,
            }),
            Slot::Vacant { .. } => None,
        })
    }
}

/// What defines an SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// Result `index` of operation `op`.
    OpResult {
        /// The defining operation.
        op: OpId,
        /// Result position.
        index: usize,
    },
    /// Argument `index` of block `block`.
    BlockArg {
        /// The owning block.
        block: BlockId,
        /// Argument position.
        index: usize,
    },
}

/// One use of a value: operand `operand_index` of `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Use {
    /// The using operation.
    pub op: OpId,
    /// Which operand slot of the using operation.
    pub operand_index: usize,
}

pub(crate) struct ValueData {
    pub ty: Type,
    pub def: ValueDef,
    pub uses: Vec<Use>,
}

pub(crate) struct OpData {
    pub name: String,
    pub operands: Vec<ValueId>,
    pub results: Vec<ValueId>,
    /// Sorted by name, in one exactly sized allocation: most ops carry
    /// one or two attributes, where a `BTreeMap` allocates a node for
    /// eleven (1.2 KB) — half a compiled kernel's heap.
    pub attrs: Vec<(String, Attribute)>,
    pub regions: Vec<RegionId>,
    pub parent: Option<BlockId>,
}

pub(crate) struct BlockData {
    pub args: Vec<ValueId>,
    pub ops: Vec<OpId>,
    pub parent: Option<RegionId>,
}

pub(crate) struct RegionData {
    pub blocks: Vec<BlockId>,
    pub parent: Option<OpId>,
}

/// The owner of all IR entities.
///
/// Every structural mutation goes through `Context` methods so that parent
/// links and use-lists stay consistent. Transform code therefore composes
/// from a small set of verified primitives: create / erase ops, move ops
/// between blocks, rewrite operands, and replace values.
#[derive(Default)]
pub struct Context {
    ops: Arena<OpData>,
    blocks: Arena<BlockData>,
    regions: Arena<RegionData>,
    values: Arena<ValueData>,
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("ops", &self.ops.len())
            .field("blocks", &self.blocks.len())
            .field("regions", &self.regions.len())
            .field("values", &self.values.len())
            .finish()
    }
}

impl Context {
    /// Create an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- creation -------------------------------------------------------

    /// Create a detached operation with the given name, operands, result
    /// types and attributes — a map, or name/value pairs in any order (of
    /// a repeated name the last value stands, as in a map). Regions can be
    /// added afterwards with [`Context::add_region`].
    pub fn create_op(
        &mut self,
        name: impl Into<String>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: impl IntoIterator<Item = (String, Attribute)>,
    ) -> OpId {
        let mut attrs: Vec<_> = attrs.into_iter().collect();
        attrs.sort_by(|a, b| a.0.cmp(&b.0));
        attrs.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                std::mem::swap(later, kept);
            }
            repeated
        });
        let id = OpId(self.ops.insert(OpData {
            name: name.into(),
            operands: Vec::with_capacity(operands.len()),
            results: Vec::new(),
            attrs,
            regions: Vec::new(),
            parent: None,
        }));
        // Results.
        let results: Vec<ValueId> = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                ValueId(self.values.insert(ValueData {
                    ty,
                    def: ValueDef::OpResult { op: id, index },
                    uses: Vec::new(),
                }))
            })
            .collect();
        self.ops.get_mut(id.0, "op").results = results;
        // Operands (with use registration).
        for v in operands {
            self.push_operand(id, v);
        }
        id
    }

    /// Append result values of the given types to an op created without
    /// results (used by the parser, which learns result types last).
    pub fn add_op_results(&mut self, op: OpId, result_types: Vec<Type>) -> Vec<ValueId> {
        let start = self.ops.get(op.0, "op").results.len();
        let new: Vec<ValueId> = result_types
            .into_iter()
            .enumerate()
            .map(|(i, ty)| {
                ValueId(self.values.insert(ValueData {
                    ty,
                    def: ValueDef::OpResult {
                        op,
                        index: start + i,
                    },
                    uses: Vec::new(),
                }))
            })
            .collect();
        self.ops
            .get_mut(op.0, "op")
            .results
            .extend(new.iter().copied());
        new
    }

    /// Create an empty region attached to `op` and return its id.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        let region = RegionId(self.regions.insert(RegionData {
            blocks: Vec::new(),
            parent: Some(op),
        }));
        self.ops.get_mut(op.0, "op").regions.push(region);
        region
    }

    /// Create a block with the given argument types, appended to `region`.
    pub fn add_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        let block = BlockId(self.blocks.insert(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            parent: Some(region),
        }));
        let args: Vec<ValueId> = arg_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                ValueId(self.values.insert(ValueData {
                    ty,
                    def: ValueDef::BlockArg { block, index },
                    uses: Vec::new(),
                }))
            })
            .collect();
        self.blocks.get_mut(block.0, "block").args = args;
        self.regions.get_mut(region.0, "region").blocks.push(block);
        block
    }

    /// Append an extra argument to an existing block.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks.get(block.0, "block").args.len();
        let v = ValueId(self.values.insert(ValueData {
            ty,
            def: ValueDef::BlockArg { block, index },
            uses: Vec::new(),
        }));
        self.blocks.get_mut(block.0, "block").args.push(v);
        v
    }

    // ---- placement ------------------------------------------------------

    /// Append `op` at the end of `block`. The op must be detached.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        assert!(
            self.ops.get(op.0, "op").parent.is_none(),
            "append_op: op {op} is already attached"
        );
        self.blocks.get_mut(block.0, "block").ops.push(op);
        self.ops.get_mut(op.0, "op").parent = Some(block);
    }

    /// Insert `op` into `block` at position `index`. The op must be detached.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(
            self.ops.get(op.0, "op").parent.is_none(),
            "insert_op: op {op} is already attached"
        );
        self.blocks.get_mut(block.0, "block").ops.insert(index, op);
        self.ops.get_mut(op.0, "op").parent = Some(block);
    }

    /// Detach `op` from its parent block (keeping it alive).
    pub fn detach_op(&mut self, op: OpId) {
        let parent = self.ops.get(op.0, "op").parent;
        if let Some(block) = parent {
            let ops = &mut self.blocks.get_mut(block.0, "block").ops;
            let pos = ops
                .iter()
                .position(|&o| o == op)
                .expect("op not found in parent block");
            ops.remove(pos);
            self.ops.get_mut(op.0, "op").parent = None;
        }
    }

    /// Position of `op` inside its parent block.
    pub fn op_position(&self, op: OpId) -> Option<(BlockId, usize)> {
        let parent = self.ops.get(op.0, "op").parent?;
        let pos = self
            .blocks
            .get(parent.0, "block")
            .ops
            .iter()
            .position(|&o| o == op)?;
        Some((parent, pos))
    }

    // ---- operand & use management ---------------------------------------

    /// Append an operand to `op`, registering the use.
    pub fn push_operand(&mut self, op: OpId, value: ValueId) {
        let operand_index = self.ops.get(op.0, "op").operands.len();
        self.ops.get_mut(op.0, "op").operands.push(value);
        self.values
            .get_mut(value.0, "value")
            .uses
            .push(Use { op, operand_index });
    }

    /// Replace operand `index` of `op` with `new`.
    pub fn set_operand(&mut self, op: OpId, index: usize, new: ValueId) {
        let old = self.ops.get(op.0, "op").operands[index];
        if old == new {
            return;
        }
        self.ops.get_mut(op.0, "op").operands[index] = new;
        let uses = &mut self.values.get_mut(old.0, "value").uses;
        let pos = uses
            .iter()
            .position(|u| u.op == op && u.operand_index == index)
            .expect("use-list out of sync");
        uses.swap_remove(pos);
        self.values.get_mut(new.0, "value").uses.push(Use {
            op,
            operand_index: index,
        });
    }

    /// Remove all operands of `op` (deregistering uses).
    pub fn clear_operands(&mut self, op: OpId) {
        let operands = std::mem::take(&mut self.ops.get_mut(op.0, "op").operands);
        for (index, v) in operands.into_iter().enumerate() {
            let uses = &mut self.values.get_mut(v.0, "value").uses;
            if let Some(pos) = uses
                .iter()
                .position(|u| u.op == op && u.operand_index == index)
            {
                uses.swap_remove(pos);
            }
        }
    }

    /// Replace every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        let uses = std::mem::take(&mut self.values.get_mut(old.0, "value").uses);
        for u in &uses {
            self.ops.get_mut(u.op.0, "op").operands[u.operand_index] = new;
        }
        self.values.get_mut(new.0, "value").uses.extend(uses);
    }

    // ---- erasure ---------------------------------------------------------

    /// Erase `op`, its results, and (recursively) its regions. Panics if any
    /// result still has uses.
    pub fn erase_op(&mut self, op: OpId) {
        let data = self.ops.get(op.0, "op");
        for &r in &data.results {
            let uses = &self.values.get(r.0, "value").uses;
            assert!(
                uses.is_empty(),
                "erase_op: result {r} of op {} still has {} use(s)",
                data.name,
                uses.len()
            );
        }
        self.detach_op(op);
        self.clear_operands(op);
        let data = self.ops.get_mut(op.0, "op");
        let results = std::mem::take(&mut data.results);
        let regions = std::mem::take(&mut data.regions);
        for r in results {
            self.values.remove(r.0, "value");
        }
        for region in regions {
            self.erase_region_contents(region);
            self.regions.remove(region.0, "region");
        }
        self.ops.remove(op.0, "op");
    }

    fn erase_region_contents(&mut self, region: RegionId) {
        let blocks = std::mem::take(&mut self.regions.get_mut(region.0, "region").blocks);
        for block in blocks {
            // Erase ops in reverse so later uses disappear before defs.
            let ops = std::mem::take(&mut self.blocks.get_mut(block.0, "block").ops);
            for op in ops.into_iter().rev() {
                // The block goes too: no need to find the op in it.
                let data = self.ops.get_mut(op.0, "op");
                data.parent = None;
                // Force-drop uses of results (we are deleting the whole
                // region; intra-region uses are fine to sever).
                for &r in &data.results {
                    self.values.get_mut(r.0, "value").uses.clear();
                }
                self.erase_op(op);
            }
            let args = std::mem::take(&mut self.blocks.get_mut(block.0, "block").args);
            for a in args {
                self.values.remove(a.0, "value");
            }
            self.blocks.remove(block.0, "block");
        }
    }

    // ---- accessors --------------------------------------------------------

    /// The operation's name, e.g. `"stencil.apply"`.
    pub fn op_name(&self, op: OpId) -> &str {
        &self.ops.get(op.0, "op").name
    }

    /// Rename an operation (used by lowering passes that reuse structure).
    pub fn set_op_name(&mut self, op: OpId, name: impl Into<String>) {
        self.ops.get_mut(op.0, "op").name = name.into();
    }

    /// The operation's operands.
    pub fn operands(&self, op: OpId) -> &[ValueId] {
        &self.ops.get(op.0, "op").operands
    }

    /// The operation's results.
    pub fn results(&self, op: OpId) -> &[ValueId] {
        &self.ops.get(op.0, "op").results
    }

    /// Result `i` of `op` (panics when out of range).
    pub fn result(&self, op: OpId, i: usize) -> ValueId {
        self.ops.get(op.0, "op").results[i]
    }

    /// The operation's regions.
    pub fn regions(&self, op: OpId) -> &[RegionId] {
        &self.ops.get(op.0, "op").regions
    }

    /// The operation's attributes, sorted by name.
    pub fn attrs(&self, op: OpId) -> &[(String, Attribute)] {
        &self.ops.get(op.0, "op").attrs
    }

    /// Attribute `name` of `op`, if present.
    pub fn attr(&self, op: OpId, name: &str) -> Option<&Attribute> {
        let attrs = self.attrs(op);
        let at = attrs.binary_search_by(|(k, _)| k.as_str().cmp(name));
        at.ok().map(|i| &attrs[i].1)
    }

    /// Set attribute `name` on `op`.
    pub fn set_attr(&mut self, op: OpId, name: impl Into<String>, attr: Attribute) {
        let name = name.into();
        let attrs = &mut self.ops.get_mut(op.0, "op").attrs;
        match attrs.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => attrs[i].1 = attr,
            Err(i) => attrs.insert(i, (name, attr)),
        }
    }

    /// Remove attribute `name` from `op`, returning it if it was present.
    pub fn remove_attr(&mut self, op: OpId, name: &str) -> Option<Attribute> {
        let attrs = &mut self.ops.get_mut(op.0, "op").attrs;
        let at = attrs.binary_search_by(|(k, _)| k.as_str().cmp(name));
        at.ok().map(|i| attrs.remove(i).1)
    }

    /// Parent block of `op` (None when detached or top-level module).
    pub fn parent_block(&self, op: OpId) -> Option<BlockId> {
        self.ops.get(op.0, "op").parent
    }

    /// Parent operation of `op` (the op owning the region containing it).
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops.get(op.0, "op").parent?;
        let region = self.blocks.get(block.0, "block").parent?;
        self.regions.get(region.0, "region").parent
    }

    /// Blocks of `region`.
    pub fn region_blocks(&self, region: RegionId) -> &[BlockId] {
        &self.regions.get(region.0, "region").blocks
    }

    /// The op that owns `region`.
    pub fn region_parent(&self, region: RegionId) -> Option<OpId> {
        self.regions.get(region.0, "region").parent
    }

    /// Arguments of `block`.
    pub fn block_args(&self, block: BlockId) -> &[ValueId] {
        &self.blocks.get(block.0, "block").args
    }

    /// Operations of `block`, in order.
    pub fn block_ops(&self, block: BlockId) -> &[OpId] {
        &self.blocks.get(block.0, "block").ops
    }

    /// The region that owns `block`.
    pub fn block_parent(&self, block: BlockId) -> Option<RegionId> {
        self.blocks.get(block.0, "block").parent
    }

    /// The type of `value`.
    pub fn value_type(&self, value: ValueId) -> &Type {
        &self.values.get(value.0, "value").ty
    }

    /// Overwrite the type of `value` (used by type-propagation transforms,
    /// e.g. the 512-bit packing step).
    pub fn set_value_type(&mut self, value: ValueId, ty: Type) {
        self.values.get_mut(value.0, "value").ty = ty;
    }

    /// What defines `value`.
    pub fn value_def(&self, value: ValueId) -> ValueDef {
        self.values.get(value.0, "value").def
    }

    /// All uses of `value`.
    pub fn value_uses(&self, value: ValueId) -> &[Use] {
        &self.values.get(value.0, "value").uses
    }

    /// True when `value` has no uses.
    pub fn value_unused(&self, value: ValueId) -> bool {
        self.values.get(value.0, "value").uses.is_empty()
    }

    /// The defining op of `value`, if it is an op result.
    pub fn defining_op(&self, value: ValueId) -> Option<OpId> {
        match self.values.get(value.0, "value").def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// True when `op` refers to a live operation.
    pub fn is_live_op(&self, op: OpId) -> bool {
        self.ops.contains(op.0)
    }

    /// Number of live operations (all blocks, all nesting levels).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of value slots the arena has ever used: every live value's
    /// slot is below it.
    pub(crate) fn value_slots(&self) -> usize {
        self.values.slots.len()
    }

    /// Everything `op` holds, for a walk that reads several parts of it.
    pub(crate) fn op_data(&self, op: OpId) -> &OpData {
        self.ops.get(op.0, "op")
    }

    /// Everything `block` holds.
    pub(crate) fn block_data(&self, block: BlockId) -> &BlockData {
        self.blocks.get(block.0, "block")
    }

    /// Iterate all live operation ids (unordered).
    pub fn all_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.iter_ids().map(OpId)
    }

    // ---- cloning -----------------------------------------------------------

    /// Deep-clone `op` (attributes, result types, nested regions) into a new
    /// detached operation. Operands are remapped through `value_map`;
    /// operands not present in the map are used as-is (references to values
    /// defined outside the cloned subtree). The clone's results and nested
    /// block arguments are registered in `value_map`, and nothing else is
    /// added to it, so a caller can keep one map across the ops it clones.
    pub fn clone_op(&mut self, op: OpId, value_map: &mut IdMap<ValueId, ValueId>) -> OpId {
        let data = self.ops.get(op.0, "op");
        let (operands, results, regions) =
            (data.operands.len(), data.results.len(), data.regions.len());
        let new_op = OpId(self.ops.insert(OpData {
            name: data.name.clone(),
            operands: Vec::with_capacity(operands),
            results: Vec::with_capacity(results),
            attrs: data.attrs.clone(),
            regions: Vec::with_capacity(regions),
            parent: None,
        }));
        for index in 0..operands {
            let old = self.ops.get(op.0, "op").operands[index];
            let new = value_map.get(&old).copied().unwrap_or(old);
            self.push_operand(new_op, new);
        }
        for index in 0..results {
            let old = self.ops.get(op.0, "op").results[index];
            let def = ValueDef::OpResult { op: new_op, index };
            let new = self.clone_value(old, def);
            self.ops.get_mut(new_op.0, "op").results.push(new);
            value_map.insert(old, new);
        }
        for index in 0..regions {
            let region = self.ops.get(op.0, "op").regions[index];
            let new_region = self.add_region(new_op);
            for b in 0..self.region_blocks(region).len() {
                let block = self.region_blocks(region)[b];
                let new_block = self.add_block(new_region, Vec::new());
                for index in 0..self.block_args(block).len() {
                    let old = self.block_args(block)[index];
                    let def = ValueDef::BlockArg {
                        block: new_block,
                        index,
                    };
                    let new = self.clone_value(old, def);
                    self.blocks.get_mut(new_block.0, "block").args.push(new);
                    value_map.insert(old, new);
                }
                for o in 0..self.block_ops(block).len() {
                    let cloned = self.clone_op(self.block_ops(block)[o], value_map);
                    self.append_op(new_block, cloned);
                }
            }
        }
        new_op
    }

    /// A new, unused value of `value`'s type, defined by `def`.
    fn clone_value(&mut self, value: ValueId, def: ValueDef) -> ValueId {
        let ty = self.values.get(value.0, "value").ty.clone();
        ValueId(self.values.insert(ValueData {
            ty,
            def,
            uses: Vec::new(),
        }))
    }

    // ---- traversal helpers -------------------------------------------------

    /// Walk `op` and all ops nested in its regions, pre-order, invoking `f`.
    pub fn walk(&self, op: OpId, f: &mut impl FnMut(OpId)) {
        f(op);
        for &region in self.regions(op) {
            for &block in self.region_blocks(region) {
                for &inner in self.block_ops(block) {
                    self.walk(inner, f);
                }
            }
        }
    }

    /// Collect all ops nested under `op` (pre-order, including `op`).
    pub fn walk_collect(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk(op, &mut |o| out.push(o));
        out
    }

    /// Collect all ops under `op` whose name equals `name`.
    pub fn find_ops(&self, op: OpId, name: &str) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk(op, &mut |o| {
            if self.op_name(o) == name {
                out.push(o);
            }
        });
        out
    }

    /// First block of the first region of `op` (the common single-block case).
    pub fn entry_block(&self, op: OpId) -> Option<BlockId> {
        self.regions(op)
            .first()
            .and_then(|&r| self.region_blocks(r).first().copied())
    }

    /// The terminator (last op) of a block, if the block is non-empty.
    pub fn terminator(&self, block: BlockId) -> Option<OpId> {
        self.block_ops(block).last().copied()
    }
}

/// Raw write access for tests that corrupt the IR on purpose, to check
/// that the verifier catches each kind of damage.
#[cfg(test)]
impl Context {
    pub(crate) fn op_data_mut(&mut self, op: OpId) -> &mut OpData {
        self.ops.get_mut(op.0, "op")
    }

    pub(crate) fn block_data_mut(&mut self, block: BlockId) -> &mut BlockData {
        self.blocks.get_mut(block.0, "block")
    }

    pub(crate) fn region_data_mut(&mut self, region: RegionId) -> &mut RegionData {
        self.regions.get_mut(region.0, "region")
    }

    pub(crate) fn value_uses_mut(&mut self, value: ValueId) -> &mut Vec<Use> {
        &mut self.values.get_mut(value.0, "value").uses
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn ctx_with_op(ctx: &mut Context) -> (OpId, ValueId) {
        let op = ctx.create_op("test.def", vec![], vec![Type::F64], BTreeMap::new());
        let v = ctx.result(op, 0);
        (op, v)
    }

    /// Attributes stay sorted by name through creation from unordered
    /// pairs (the last of a repeated name standing), inserts,
    /// replacements, removals and clones, and every lookup finds what was
    /// set.
    #[test]
    fn attributes_stay_sorted_by_name() {
        let mut ctx = Context::new();
        let pair = |name: &str, attr| (name.to_string(), attr);
        let attrs = [
            pair("m", Attribute::Unit),
            pair("b", Attribute::IndexArray(vec![1])),
            pair("b", Attribute::IndexArray(vec![2])),
        ];
        let op = ctx.create_op("test.op", vec![], vec![], attrs);
        assert_eq!(ctx.attr(op, "b"), Some(&Attribute::IndexArray(vec![2])));
        for name in ["z", "a", "q"] {
            ctx.set_attr(op, name, Attribute::Unit);
        }
        ctx.set_attr(op, "q", Attribute::IndexArray(vec![1]));
        assert_eq!(ctx.remove_attr(op, "m"), Some(Attribute::Unit));
        assert_eq!(ctx.remove_attr(op, "m"), None);
        let names = |ctx: &Context, op| -> Vec<String> {
            ctx.attrs(op).iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(names(&ctx, op), ["a", "b", "q", "z"]);
        assert_eq!(ctx.attr(op, "q"), Some(&Attribute::IndexArray(vec![1])));
        assert_eq!(ctx.attr(op, "c"), None);
        let copy = ctx.clone_op(op, &mut IdMap::default());
        assert_eq!(ctx.attrs(copy), ctx.attrs(op));
    }

    #[test]
    fn create_and_query_op() {
        let mut ctx = Context::new();
        let (op, v) = ctx_with_op(&mut ctx);
        assert_eq!(ctx.op_name(op), "test.def");
        assert_eq!(ctx.results(op), &[v]);
        assert_eq!(ctx.value_type(v), &Type::F64);
        assert_eq!(ctx.value_def(v), ValueDef::OpResult { op, index: 0 });
        assert!(ctx.value_unused(v));
    }

    #[test]
    fn operand_use_lists() {
        let mut ctx = Context::new();
        let (_, v) = ctx_with_op(&mut ctx);
        let user = ctx.create_op("test.use", vec![v, v], vec![], BTreeMap::new());
        assert_eq!(ctx.value_uses(v).len(), 2);
        let (_, v2) = ctx_with_op(&mut ctx);
        ctx.set_operand(user, 0, v2);
        assert_eq!(ctx.value_uses(v).len(), 1);
        assert_eq!(ctx.value_uses(v2).len(), 1);
        assert_eq!(ctx.operands(user), &[v2, v]);
    }

    #[test]
    fn replace_all_uses() {
        let mut ctx = Context::new();
        let (_, a) = ctx_with_op(&mut ctx);
        let (_, b) = ctx_with_op(&mut ctx);
        let u1 = ctx.create_op("test.u1", vec![a], vec![], BTreeMap::new());
        let u2 = ctx.create_op("test.u2", vec![a, a], vec![], BTreeMap::new());
        ctx.replace_all_uses(a, b);
        assert!(ctx.value_unused(a));
        assert_eq!(ctx.value_uses(b).len(), 3);
        assert_eq!(ctx.operands(u1), &[b]);
        assert_eq!(ctx.operands(u2), &[b, b]);
    }

    #[test]
    fn block_placement_and_detach() {
        let mut ctx = Context::new();
        let outer = ctx.create_op("test.region_holder", vec![], vec![], BTreeMap::new());
        let region = ctx.add_region(outer);
        let block = ctx.add_block(region, vec![Type::Index]);
        assert_eq!(ctx.block_args(block).len(), 1);

        let (op1, _) = ctx_with_op(&mut ctx);
        let (op2, _) = ctx_with_op(&mut ctx);
        ctx.append_op(block, op1);
        ctx.append_op(block, op2);
        assert_eq!(ctx.block_ops(block), &[op1, op2]);
        assert_eq!(ctx.parent_block(op1), Some(block));
        assert_eq!(ctx.parent_op(op1), Some(outer));

        let (op0, _) = ctx_with_op(&mut ctx);
        ctx.insert_op(block, 0, op0);
        assert_eq!(ctx.block_ops(block), &[op0, op1, op2]);
        assert_eq!(ctx.op_position(op1), Some((block, 1)));

        ctx.detach_op(op1);
        assert_eq!(ctx.block_ops(block), &[op0, op2]);
        assert_eq!(ctx.parent_block(op1), None);
    }

    #[test]
    fn erase_op_frees_and_stale_access_panics() {
        let mut ctx = Context::new();
        let (op, v) = ctx_with_op(&mut ctx);
        ctx.erase_op(op);
        assert!(!ctx.is_live_op(op));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ctx.value_type(v);
        }));
        assert!(r.is_err(), "stale value access must panic");
    }

    #[test]
    #[should_panic(expected = "still has")]
    fn erase_op_with_uses_panics() {
        let mut ctx = Context::new();
        let (op, v) = ctx_with_op(&mut ctx);
        let _user = ctx.create_op("test.use", vec![v], vec![], BTreeMap::new());
        ctx.erase_op(op);
    }

    #[test]
    fn erase_region_recursively() {
        let mut ctx = Context::new();
        let outer = ctx.create_op("test.holder", vec![], vec![], BTreeMap::new());
        let region = ctx.add_region(outer);
        let block = ctx.add_block(region, vec![]);
        let (inner, iv) = ctx_with_op(&mut ctx);
        ctx.append_op(block, inner);
        let user = ctx.create_op("test.use", vec![iv], vec![], BTreeMap::new());
        ctx.append_op(block, user);
        let before = ctx.num_ops();
        ctx.erase_op(outer);
        assert_eq!(ctx.num_ops(), before - 3);
    }

    #[test]
    fn generation_reuse_is_detected() {
        let mut ctx = Context::new();
        let (op, _) = ctx_with_op(&mut ctx);
        ctx.erase_op(op);
        // New op likely reuses the slot; the old id must stay invalid.
        let (op2, _) = ctx_with_op(&mut ctx);
        assert!(ctx.is_live_op(op2));
        assert!(!ctx.is_live_op(op));
    }

    #[test]
    fn walk_and_find() {
        let mut ctx = Context::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
        let region = ctx.add_region(module);
        let block = ctx.add_block(region, vec![]);
        let f = ctx.create_op("func.func", vec![], vec![], BTreeMap::new());
        let fregion = ctx.add_region(f);
        let fblock = ctx.add_block(fregion, vec![]);
        ctx.append_op(block, f);
        let (c1, _) = ctx_with_op(&mut ctx);
        ctx.append_op(fblock, c1);
        let collected = ctx.walk_collect(module);
        assert_eq!(collected, vec![module, f, c1]);
        assert_eq!(ctx.find_ops(module, "test.def"), vec![c1]);
        assert_eq!(ctx.entry_block(module), Some(block));
        assert_eq!(ctx.terminator(fblock), Some(c1));
    }
}
