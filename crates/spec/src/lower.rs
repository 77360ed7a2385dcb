//! Lowering a checked [`NetlistSpec`] to a `wp_sim::SystemBuilder` through
//! a block registry.
//!
//! The spec layer cannot know how to *behave* — a text file can name a
//! block `kind=cu` but not carry the control unit's microarchitecture — so
//! behaviour is injected: a [`BlockRegistry`] maps kind names to process
//! constructors (closures over whatever context the kinds need, e.g. the
//! workload of the case-study processor).  One lowered [`SystemBuilder`]
//! then serves every executable view the codebase knows: the scalar
//! `LidSimulator`, the `GoldenSimulator`/`NaiveGoldenSimulator` twins, the
//! 64-lane `LaneLidSimulator`, and (via `to_netlist`) the exact
//! max-cycle-ratio throughput graph.

use wp_core::Process;
use wp_sim::SystemBuilder;

use crate::ast::{BlockSpec, Direction, NetlistSpec, SpecError};
use crate::parse::MAX_RELAY_STATIONS;

/// A boxed block constructor: builds the process for one [`BlockSpec`],
/// interpreting its attributes, or explains why it cannot.
type MakeFn<V> = Box<dyn Fn(&BlockSpec) -> Result<Box<dyn Process<V>>, String> + Send + Sync>;

/// Maps block kind names to process constructors for one value domain `V`.
///
/// Registries are cheap to build per lowering; constructors capture their
/// context by clone (`Send + Sync`, since system factories run inside sweep
/// worker threads).
pub struct BlockRegistry<V> {
    kinds: Vec<(String, MakeFn<V>)>,
}

impl<V> Default for BlockRegistry<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> std::fmt::Debug for BlockRegistry<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRegistry")
            .field(
                "kinds",
                &self.kinds.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<V> BlockRegistry<V> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self { kinds: Vec::new() }
    }

    /// Registers the constructor for a kind.
    ///
    /// # Panics
    ///
    /// Panics when the kind is already registered (a programming error in
    /// the registry assembly, not a data error).
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        make: impl Fn(&BlockSpec) -> Result<Box<dyn Process<V>>, String> + Send + Sync + 'static,
    ) {
        let kind = kind.into();
        assert!(
            !self.contains(&kind),
            "block kind '{kind}' registered twice"
        );
        self.kinds.push((kind, Box::new(make)));
    }

    /// Whether a kind is registered.
    pub fn contains(&self, kind: &str) -> bool {
        self.kinds.iter().any(|(k, _)| k == kind)
    }

    /// The registered kind names, in registration order.
    pub fn kinds(&self) -> impl Iterator<Item = &str> {
        self.kinds.iter().map(|(k, _)| k.as_str())
    }

    /// Builds the process for one block spec.
    fn make(&self, block: &BlockSpec) -> Result<Box<dyn Process<V>>, SpecError> {
        let make = self
            .kinds
            .iter()
            .find(|(k, _)| *k == block.kind)
            .map(|(_, f)| f)
            .ok_or_else(|| SpecError::Build {
                message: format!(
                    "block '{}' has unknown kind '{}'; registered kinds: {}",
                    block.name,
                    block.kind,
                    self.kinds().collect::<Vec<_>>().join(", ")
                ),
            })?;
        make(block).map_err(|message| SpecError::Build {
            message: format!("block '{}' (kind '{}'): {message}", block.name, block.kind),
        })
    }
}

/// Lowers a spec to a [`SystemBuilder`]: one process per block (constructed
/// by the registry), one channel per declaration, process/channel
/// identifiers equal to the declaration indices.
///
/// # Errors
///
/// Returns [`SpecError::Build`] when the spec fails [`NetlistSpec::check`]
/// (relevant for programmatically built or mutated specs — parsing already
/// enforces it), when a kind is unknown to the registry or its constructor
/// rejects the block's attributes, when a constructed process disagrees
/// with the declared port counts, or when the resulting system fails
/// `SystemBuilder::validate` — and, before anything is built, when the
/// channels' relay stations total more than [`MAX_RELAY_STATIONS`] (say,
/// after [`NetlistSpec::insert_relays`] at a tiny clock period).
pub fn lower<V>(
    spec: &NetlistSpec,
    registry: &BlockRegistry<V>,
) -> Result<SystemBuilder<V>, SpecError> {
    let total: u128 = spec.channels.iter().map(|c| c.relay_stations as u128).sum();
    if total > MAX_RELAY_STATIONS as u128 {
        return Err(SpecError::Build {
            message: format!(
                "the channels' relay stations total {total}, over the limit of \
                 {MAX_RELAY_STATIONS}"
            ),
        });
    }
    spec.check()
        .map_err(|message| SpecError::Build { message })?;
    let mut builder = SystemBuilder::new();
    for block in &spec.blocks {
        let process = registry.make(block)?;
        for (declared, actual, what) in [
            (block.inputs.len(), process.num_inputs(), "input"),
            (block.outputs.len(), process.num_outputs(), "output"),
        ] {
            if declared != actual {
                return Err(SpecError::Build {
                    message: format!(
                        "block '{}' (kind '{}') declares {declared} {what} ports but the \
                         process has {actual}",
                        block.name, block.kind
                    ),
                });
            }
        }
        builder.add_process(process);
    }
    for channel in &spec.channels {
        let (src, src_port) = spec
            .resolve(&channel.from, Direction::Out)
            .expect("checked spec resolves");
        let (dst, dst_port) = spec
            .resolve(&channel.to, Direction::In)
            .expect("checked spec resolves");
        builder.connect(
            channel.name.clone(),
            src,
            src_port,
            dst,
            dst_port,
            channel.relay_stations,
        );
    }
    builder.validate().map_err(|e| SpecError::Build {
        message: e.to_string(),
    })?;
    Ok(builder)
}
