//! Connectivity extraction: from drawn geometry to electrical nets.
//!
//! This is the machinery behind two of the paper's Section 2 issues:
//! *off-page connectors* ("Viewlogic connects same signal names across
//! multiple pages implicitly... Cascade requires these connections to be
//! explicit") and *verification* (the extracted netlist is the canonical
//! form compared before and after translation).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use interop_core::intern::IStr;

use crate::bus::{bit_indices, BusSyntax, NetExpr};
use crate::design::{CellSchematic, Design};
use crate::dialect::DialectRules;
use crate::geom::Point;
use crate::netlist::{CellNetlist, NetInfo, Netlist, PinRef};
use crate::sheet::{point_on_segment, ConnectorKind, Wire};

/// An extraction problem that prevents a clean netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// A wire or connector label failed to parse under the dialect
    /// grammar.
    UnparsedLabel {
        /// Page number.
        page: u32,
        /// Label text.
        text: String,
        /// Parser message.
        reason: String,
    },
    /// A scalar-named pin or label touched a bus bundle.
    BusTapMismatch {
        /// Page number.
        page: u32,
        /// Description of the offending attachment.
        what: String,
        /// The bundle's base names.
        bundle: String,
    },
    /// An instance references a symbol missing from the libraries; its
    /// pins cannot be extracted.
    UnresolvedSymbol {
        /// Page number.
        page: u32,
        /// Instance name.
        inst: String,
    },
}

impl fmt::Display for ConnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnError::UnparsedLabel { page, text, reason } => {
                write!(f, "p{page}: label `{text}`: {reason}")
            }
            ConnError::BusTapMismatch { page, what, bundle } => {
                write!(f, "p{page}: {what} attached to bundle {bundle}")
            }
            ConnError::UnresolvedSymbol { page, inst } => {
                write!(f, "p{page}: instance {inst}: unresolved symbol")
            }
        }
    }
}

/// One extracted electrical net.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractedNet {
    /// Canonical name (lexicographically smallest alias, or a synthetic
    /// `N$k` for anonymous nets).
    pub name: String,
    /// Every name attached to the net.
    pub aliases: BTreeSet<String>,
    /// Instance pins on the net.
    pub pins: BTreeSet<PinRef>,
    /// Pages the net appears on.
    pub pages: BTreeSet<u32>,
    /// Port names binding the net to the parent cell.
    pub ports: BTreeSet<String>,
    /// True when the net is a declared global.
    pub is_global: bool,
    /// True when an off-page connector is attached.
    pub has_offpage: bool,
}

/// Result of extracting one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Extraction {
    /// Cell name.
    pub cell: String,
    /// The extracted nets, sorted by canonical name.
    pub nets: Vec<ExtractedNet>,
    /// Problems found along the way.
    pub errors: Vec<ConnError>,
}

impl Extraction {
    /// Finds a net by any alias.
    pub fn net(&self, name: &str) -> Option<&ExtractedNet> {
        self.nets
            .iter()
            .find(|n| n.name == name || n.aliases.contains(name))
    }
}

/// Formats an expanded bit or scalar name: `base<idx>` with any postfix
/// appended. Takes the base by value so a scalar reuses its buffer.
fn expanded(mut base: String, idx: Option<i64>, postfix: Option<char>) -> String {
    if let Some(i) = idx {
        write!(base, "<{i}>").expect("formatting into a String cannot fail");
    }
    if let Some(c) = postfix {
        base.push(c);
    }
    base
}

/// Union-find over small index sets.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `len` singleton sets.
    fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
        }
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// What a geometric cluster has attached to it.
#[derive(Debug, Clone, Default)]
struct Cluster<'a> {
    page: u32,
    min_point: (i64, i64),
    /// Scalar / single-bit names (already expanded, postfix folded in).
    names: BTreeSet<String>,
    /// Bus ranges labelled onto the cluster: (base, from, to, postfix).
    ranges: Vec<(String, i64, i64, Option<char>)>,
    pins: Vec<(PinRef, &'a str)>, // pin ref + raw pin name
    offpage_names: BTreeSet<String>,
    port_names: BTreeSet<String>,
}

impl Cluster<'_> {
    /// Records that a connector of `kind` carries the expanded `name`.
    fn tag(&mut self, kind: ConnectorKind, name: &str) {
        let set = match kind {
            ConnectorKind::OffPage => &mut self.offpage_names,
            k if k.is_hierarchy() => &mut self.port_names,
            _ => return,
        };
        if !set.contains(name) {
            set.insert(name.to_string());
        }
    }
}

/// A net "atom": the per-bit (or per-scalar) unit produced from one
/// cluster, before name-based merging.
#[derive(Debug, Clone, Default)]
struct Atom {
    page: u32,
    order_key: (u32, i64, i64),
    names: BTreeSet<String>,
    pins: BTreeSet<PinRef>,
    ports: BTreeSet<String>,
    has_offpage: bool,
}

/// A node position: page, then drawing coordinates.
type NodeKey = (u32, i64, i64);

/// The nodes of one cell — every distinct position a wire vertex, pin
/// or connector lands on — indexed for the question "which nodes does
/// this wire touch?".
///
/// Nodes are held in `(page, x, y)` order and again in `(page, y, x)`
/// order. Every node inside a segment's bounding box lies in one
/// contiguous run of either order: from the box's lower corner to its
/// upper one. For a vertical segment the run of the first order holds
/// exactly the nodes on it, for a horizontal one the run of the second.
/// A diagonal scans the shorter run and keeps the nodes
/// [`point_on_segment`] accepts.
struct NodeIndex {
    /// Node keys with their ids, in `(page, x, y)` order. Ids number the
    /// nodes in order of first registration.
    by_x: Vec<(NodeKey, usize)>,
    /// Keys as `(page, y, x)`, with their positions in `by_x`, sorted.
    by_y: Vec<(NodeKey, usize)>,
}

impl NodeIndex {
    /// Indexes the distinct positions among `registrations`, returning
    /// the index and the node id of each registration.
    fn build(registrations: &[NodeKey]) -> (NodeIndex, Vec<usize>) {
        let mut sorted: Vec<(NodeKey, usize)> = registrations.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        let mut by_x: Vec<(NodeKey, usize)> = Vec::new();
        let mut pos_of = vec![0; registrations.len()];
        for &(key, r) in &sorted {
            if by_x.last().is_none_or(|&(k, _)| k != key) {
                by_x.push((key, usize::MAX));
            }
            pos_of[r] = by_x.len() - 1;
        }
        let mut next = 0;
        let node_of = pos_of
            .iter()
            .map(|&p| {
                if by_x[p].1 == usize::MAX {
                    by_x[p].1 = next;
                    next += 1;
                }
                by_x[p].1
            })
            .collect();
        let mut by_y: Vec<(NodeKey, usize)> = by_x
            .iter()
            .enumerate()
            .map(|(i, &((page, x, y), _))| ((page, y, x), i))
            .collect();
        by_y.sort_unstable();
        (NodeIndex { by_x, by_y }, node_of)
    }

    /// The id of the node at position `i` of the `(page, x, y)` order.
    fn node(&self, i: usize) -> usize {
        self.by_x[i].1
    }

    /// Replaces `out` with the positions of the nodes on `page` that
    /// `wire` touches: ascending, so in `(page, x, y)` order, each once.
    fn touching(&self, page: u32, wire: &Wire, out: &mut Vec<usize>) {
        out.clear();
        for (a, b) in wire.segments() {
            let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
            let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
            let run = |order: &[(NodeKey, usize)], lo: NodeKey, hi: NodeKey| {
                order.partition_point(|&(k, _)| k < lo)..order.partition_point(|&(k, _)| k <= hi)
            };
            let xs = run(&self.by_x, (page, x0, y0), (page, x1, y1));
            let ys = self.by_y[run(&self.by_y, (page, y0, x0), (page, y1, x1))]
                .iter()
                .map(|&(_, i)| i);
            let on = |&i: &usize| {
                let (_, x, y) = self.by_x[i].0;
                point_on_segment(Point::new(x, y), a, b)
            };
            if x0 == x1 {
                // Vertical, or a single point: the run is exact.
                out.extend(xs);
            } else if y0 == y1 {
                out.extend(ys);
            } else if xs.len() <= ys.len() {
                out.extend(xs.filter(on));
            } else {
                out.extend(ys.filter(on));
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Extracts the connectivity of one cell under a dialect rule table.
pub fn extract_cell(design: &Design, cell: &CellSchematic, rules: &DialectRules) -> Extraction {
    let mut errors = Vec::new();

    // Pass 1: register geometry — every wire vertex, pin and connector —
    // then number the distinct positions and union wire paths.
    let mut registrations: Vec<NodeKey> = Vec::new();
    // Per wire, in sheet and wire order: its page and the registration
    // of its first vertex (the rest follow it).
    let mut wire_heads: Vec<(u32, usize)> = Vec::new();
    struct PinSite<'a> {
        reg: usize,
        pin: PinRef,
        raw_name: &'a str,
    }
    let mut pin_sites: Vec<PinSite> = Vec::new();
    struct ConnSite<'a> {
        reg: usize,
        kind: ConnectorKind,
        name: &'a str,
    }
    let mut conn_sites: Vec<ConnSite> = Vec::new();

    for sheet in &cell.sheets {
        let page = sheet.page;
        for wire in &sheet.wires {
            wire_heads.push((page, registrations.len()));
            registrations.extend(wire.points.iter().map(|p| (page, p.x, p.y)));
        }
        for inst in &sheet.instances {
            let Some(sym) = design.resolve_symbol(&inst.symbol) else {
                errors.push(ConnError::UnresolvedSymbol {
                    page,
                    inst: inst.name.as_str().to_string(),
                });
                continue;
            };
            for pin in &sym.pins {
                let at = inst.place.apply(pin.at);
                pin_sites.push(PinSite {
                    reg: registrations.len(),
                    pin: PinRef::new(inst.name, pin.name),
                    raw_name: &pin.name,
                });
                registrations.push((page, at.x, at.y));
            }
        }
        for conn in &sheet.connectors {
            conn_sites.push(ConnSite {
                reg: registrations.len(),
                kind: conn.kind,
                name: &conn.name,
            });
            registrations.push((page, conn.at.x, conn.at.y));
        }
    }
    let (index, node_of) = NodeIndex::build(&registrations);
    let mut uf = UnionFind::new(index.by_x.len());
    let wires = || {
        let wires = cell.sheets.iter().flat_map(|s| &s.wires);
        wires.zip(wire_heads.iter().copied())
    };
    for (wire, (_, head)) in wires() {
        for w in node_of[head..head + wire.points.len()].windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Pass 2: union every registered node that touches a wire on the same
    // page (captures T junctions and pins landing mid-segment). Each
    // wire's nodes are united with its head in `(page, x, y)` order.
    let mut touched = Vec::new();
    for (wire, (page, head)) in wires() {
        index.touching(page, wire, &mut touched);
        for &i in &touched {
            uf.union(index.node(i), node_of[head]);
        }
    }

    // Pass 3: gather cluster attributes, one cluster per union-find root,
    // in root order. No union follows, so each node's cluster is fixed.
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of: Vec<usize> = (0..uf.parent.len()).map(|i| uf.find(i)).collect();
    let mut slot = vec![0; cluster_of.len()];
    for (i, &root) in cluster_of.iter().enumerate() {
        if root == i {
            slot[i] = clusters.len();
            clusters.push(Cluster::default());
        }
    }
    for c in &mut cluster_of {
        *c = slot[*c];
    }
    // In descending key order, so each cluster ends on its minimum point.
    for &((page, x, y), node) in index.by_x.iter().rev() {
        let cl = &mut clusters[cluster_of[node]];
        cl.page = page;
        cl.min_point = (x, y);
    }

    // Wire labels.
    for (wire, (page, head)) in wires() {
        let Some(label) = &wire.label else { continue };
        match rules.bus.parse(&label.text, &cell.buses) {
            Ok(name) => {
                let cl = &mut clusters[cluster_of[node_of[head]]];
                match name.expr {
                    NetExpr::Scalar(b) => {
                        cl.names.insert(expanded(b, None, name.postfix));
                    }
                    NetExpr::Bit(b, i) => {
                        cl.names.insert(expanded(b, Some(i), name.postfix));
                    }
                    NetExpr::Range(b, f, t) => cl.ranges.push((b, f, t, name.postfix)),
                }
            }
            Err(e) => errors.push(ConnError::UnparsedLabel {
                page,
                text: label.text.as_str().to_string(),
                reason: e.to_string(),
            }),
        }
    }

    // Connectors.
    for site in &conn_sites {
        let cl = &mut clusters[cluster_of[node_of[site.reg]]];
        let parsed = match rules.bus.parse(site.name, &cell.buses) {
            Ok(p) => p,
            Err(e) => {
                errors.push(ConnError::UnparsedLabel {
                    page: cl.page,
                    text: site.name.to_string(),
                    reason: e.to_string(),
                });
                continue;
            }
        };
        match parsed.expr {
            NetExpr::Scalar(b) => {
                let n = expanded(b, None, parsed.postfix);
                cl.tag(site.kind, &n);
                cl.names.insert(n);
            }
            NetExpr::Bit(b, i) => {
                let n = expanded(b, Some(i), parsed.postfix);
                cl.tag(site.kind, &n);
                cl.names.insert(n);
            }
            NetExpr::Range(b, f, t) => {
                if site.kind == ConnectorKind::OffPage || site.kind.is_hierarchy() {
                    bit_indices(f, t).for_each(|i| {
                        cl.tag(site.kind, &expanded(b.clone(), Some(i), parsed.postfix))
                    });
                }
                cl.ranges.push((b, f, t, parsed.postfix));
            }
        }
    }

    // Pins.
    for site in pin_sites {
        clusters[cluster_of[node_of[site.reg]]]
            .pins
            .push((site.pin, site.raw_name));
    }

    // Pass 4: clusters -> atoms, in root order.
    let mut atoms: Vec<Atom> = Vec::new();
    for cl in clusters {
        let order_key = (cl.page, cl.min_point.0, cl.min_point.1);
        if cl.ranges.is_empty() {
            // Plain net.
            atoms.push(Atom {
                page: cl.page,
                order_key,
                has_offpage: !cl.offpage_names.is_empty(),
                names: cl.names,
                ports: cl.port_names,
                pins: cl.pins.into_iter().map(|(pin, _raw)| pin).collect(),
            });
            continue;
        }
        // Bundle: one atom per covered bit.
        let bases: BTreeSet<&str> = cl.ranges.iter().map(|(b, _, _, _)| b.as_str()).collect();
        let mut bits: BTreeMap<String, Atom> = BTreeMap::new();
        for (b, f, t, pf) in &cl.ranges {
            bit_indices(*f, *t).for_each(|i| {
                let n = expanded(b.clone(), Some(i), *pf);
                if bits.contains_key(&n) {
                    return;
                }
                let mut atom = Atom {
                    page: cl.page,
                    order_key,
                    has_offpage: cl.offpage_names.contains(&n),
                    ..Atom::default()
                };
                if cl.port_names.contains(&n) {
                    atom.ports.insert(n.clone());
                }
                atom.names.insert(n.clone());
                bits.insert(n, atom);
            });
        }
        // Pins must be bus-bit named with a matching base.
        let scope: BTreeSet<IStr> = bases.iter().map(|s| IStr::from(*s)).collect();
        let bundle = || bases.iter().copied().collect::<Vec<_>>().join(",");
        for (pin, raw) in &cl.pins {
            match BusSyntax::Viewstar.parse(raw, &scope) {
                Ok(p) => match p.expr {
                    NetExpr::Bit(b, i) if bases.contains(b.as_str()) => {
                        // Attach to any postfix variant carrying this bit.
                        let mut attached = false;
                        for (b2, f, t, pf) in &cl.ranges {
                            if *b2 == b && (*f.min(t)..=*f.max(t)).contains(&i) {
                                if let Some(atom) = bits.get_mut(&expanded(b.clone(), Some(i), *pf))
                                {
                                    atom.pins.insert(*pin);
                                    attached = true;
                                }
                            }
                        }
                        if !attached {
                            errors.push(ConnError::BusTapMismatch {
                                page: cl.page,
                                what: format!("pin {pin} bit {i} outside bundle range"),
                                bundle: bundle(),
                            });
                        }
                    }
                    _ => errors.push(ConnError::BusTapMismatch {
                        page: cl.page,
                        what: format!("scalar pin {pin}"),
                        bundle: bundle(),
                    }),
                },
                Err(e) => errors.push(ConnError::UnparsedLabel {
                    page: cl.page,
                    text: raw.to_string(),
                    reason: e.to_string(),
                }),
            }
        }
        // Scalar names alongside ranges are taps onto single bits or
        // mistakes.
        for n in &cl.names {
            if !bits.contains_key(n) {
                errors.push(ConnError::BusTapMismatch {
                    page: cl.page,
                    what: format!("name `{n}`"),
                    bundle: bundle(),
                });
            }
        }
        atoms.extend(bits.into_values());
    }

    // Pass 5: merge atoms by name per dialect rules. Names are visited in
    // order, and each name's atoms in index order.
    atoms.sort_by_key(|a| a.order_key);
    let mut auf = UnionFind::new(atoms.len());
    let mut by_name: Vec<(&str, usize)> = atoms
        .iter()
        .enumerate()
        .flat_map(|(i, atom)| atom.names.iter().map(move |n| (n.as_str(), i)))
        .collect();
    by_name.sort_unstable();
    let mut per_page: Vec<(u32, usize)> = Vec::new();
    for members in by_name.chunk_by(|a, b| a.0 == b.0) {
        let is_global = design.globals().contains(members[0].0);
        if rules.implicit_page_nets || is_global {
            for w in members.windows(2) {
                auf.union(w[0].1, w[1].1);
            }
            continue;
        }
        // Same-page merging always applies.
        per_page.clear();
        per_page.extend(members.iter().map(|&(_, m)| (atoms[m].page, m)));
        per_page.sort_unstable();
        for w in per_page.windows(2) {
            if w[0].0 == w[1].0 {
                auf.union(w[0].1, w[1].1);
            }
        }
        // Cross-page merging only through off-page connectors.
        let mut gated = members
            .iter()
            .map(|&(_, m)| m)
            .filter(|&m| atoms[m].has_offpage);
        if let Some(mut prev) = gated.next() {
            for m in gated {
                auf.union(prev, m);
                prev = m;
            }
        }
    }

    // Pass 6: materialize nets, one per union-find group. Groups go in
    // root order, then stably by their first atom's position.
    let mut grouped: Vec<(usize, usize)> = (0..atoms.len()).map(|i| (auf.find(i), i)).collect();
    grouped.sort_unstable();
    let mut groups: Vec<&[(usize, usize)]> = grouped.chunk_by(|a, b| a.0 == b.0).collect();
    groups.sort_by_key(|g| atoms[g[0].1].order_key);
    let port_names: BTreeSet<&str> = cell.ports.iter().map(|p| p.name.as_str()).collect();
    let mut nets: Vec<ExtractedNet> = Vec::new();
    let mut anon = 0usize;
    for group in groups {
        let mut net = ExtractedNet::default();
        for &(_, i) in group {
            let mut a = std::mem::take(&mut atoms[i]);
            net.aliases.append(&mut a.names);
            net.pins.append(&mut a.pins);
            net.pages.insert(a.page);
            net.ports.append(&mut a.ports);
            net.has_offpage |= a.has_offpage;
        }
        if net.pins.is_empty() && net.aliases.is_empty() {
            continue; // dangling geometry with nothing attached
        }
        // Name-based port binding (Viewstar has no hierarchy connectors).
        for alias in &net.aliases {
            if port_names.contains(alias.as_str()) && !net.ports.contains(alias) {
                net.ports.insert(alias.clone());
            }
        }
        net.is_global = net
            .aliases
            .iter()
            .any(|n| design.globals().contains(n.as_str()));
        net.name = match net.aliases.first() {
            Some(n) => n.clone(),
            None => {
                anon += 1;
                format!("N${anon}")
            }
        };
        nets.push(net);
    }
    nets.sort_by(|a, b| a.name.cmp(&b.name));

    Extraction {
        cell: cell.cell.clone(),
        nets,
        errors,
    }
}

/// Extracts every cell of a design into a canonical [`Netlist`].
///
/// Returns the netlist plus all per-cell extraction errors.
pub fn extract_design(
    design: &Design,
    rules: &DialectRules,
) -> (Netlist, Vec<(String, ConnError)>) {
    let mut netlist = Netlist::new(design.name.clone());
    let mut errors = Vec::new();
    for (name, cell) in design.cells() {
        let ex = extract_cell(design, cell, rules);
        let mut cn = CellNetlist::default();
        for sheet in &cell.sheets {
            for inst in &sheet.instances {
                cn.instances.insert(inst.name, inst.symbol.cell);
            }
        }
        // Nets arrive sorted by name; as with `insert`, the last of
        // several same-named nets wins.
        cn.nets = ex
            .nets
            .into_iter()
            .map(|net| {
                let info = NetInfo {
                    pins: net.pins,
                    is_global: net.is_global,
                    ports: net.ports,
                };
                (net.name, info)
            })
            .collect();
        for e in ex.errors {
            errors.push((name.to_string(), e));
        }
        netlist.cells.insert(name.to_string(), cn);
    }
    (netlist, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::design::{CellSchematic, Library};
    use crate::dialect::{DialectId, DialectRules};
    use crate::gen::{generate, GenConfig};
    use crate::geom::{Orient, Point};
    use crate::property::{FontMetrics, Label};
    use crate::sheet::{Connector, Instance, Sheet, Wire};
    use crate::symbol::{PinDir, SymbolDef, SymbolRef};

    fn inv_symbol() -> SymbolDef {
        SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
            .with_pin("A", Point::new(0, 0), PinDir::Input)
            .with_pin("Y", Point::new(64, 0), PinDir::Output)
    }

    fn design_with_lib() -> Design {
        let mut d = Design::new("t", DialectId::Viewstar);
        let mut lib = Library::new("basiclib");
        lib.add(inv_symbol());
        d.add_library(lib);
        d
    }

    fn label(text: &str, at: Point) -> Label {
        Label::new(text, at, FontMetrics::VIEWSTAR)
    }

    #[test]
    fn two_inverters_in_series_extract_three_nets() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        s.instances
            .push(Instance::new("I1", sym, Point::new(0, 0), Orient::R0));
        s.instances
            .push(Instance::new("I2", sym, Point::new(160, 0), Orient::R0));
        // I1.Y at (64,0) to I2.A at (160,0).
        s.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(160, 0)])
                .with_label(label("mid", Point::new(96, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex.errors.is_empty(), "{:?}", ex.errors);
        // mid + two dangling pin nets (I1.A, I2.Y).
        assert_eq!(ex.nets.len(), 3);
        let mid = ex.net("mid").expect("mid exists");
        assert_eq!(mid.pins.len(), 2);
        assert!(mid.pins.contains(&PinRef::new("I1", "Y")));
        assert!(mid.pins.contains(&PinRef::new("I2", "A")));
    }

    #[test]
    fn t_junction_connects_mid_segment() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        s.instances
            .push(Instance::new("I1", sym, Point::new(0, 0), Orient::R0));
        // Horizontal wire through I1.Y; a vertical wire T-ing into its middle.
        s.wires
            .push(Wire::new(vec![Point::new(64, 0), Point::new(192, 0)]));
        s.wires
            .push(Wire::new(vec![Point::new(128, -64), Point::new(128, 0)]));
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        // I1.Y + both wires are one net; I1.A dangles.
        assert_eq!(ex.nets.len(), 2);
        let with_pin = ex
            .nets
            .iter()
            .find(|n| n.pins.contains(&PinRef::new("I1", "Y")))
            .unwrap();
        assert_eq!(with_pin.pins.len(), 1);
    }

    #[test]
    fn implicit_page_merge_in_viewstar_but_not_cascade() {
        let build = |dialect: DialectId| {
            let mut d = design_with_lib();
            d.dialect = dialect;
            let mut cell = CellSchematic::new("top");
            let sym = SymbolRef::new("basiclib", "inv", "symbol");
            let mut s1 = Sheet::new(1);
            s1.instances
                .push(Instance::new("I1", sym, Point::new(0, 0), Orient::R0));
            s1.wires.push(
                Wire::new(vec![Point::new(64, 0), Point::new(160, 0)])
                    .with_label(label("sig", Point::new(96, 4))),
            );
            let mut s2 = Sheet::new(2);
            s2.instances
                .push(Instance::new("I2", sym, Point::new(320, 0), Orient::R0));
            s2.wires.push(
                Wire::new(vec![Point::new(240, 0), Point::new(320, 0)])
                    .with_label(label("sig", Point::new(260, 4))),
            );
            cell.sheets.push(s1);
            cell.sheets.push(s2);
            d.add_cell(cell);
            d
        };

        let dv = build(DialectId::Viewstar);
        let ex = extract_cell(&dv, dv.cell("top").unwrap(), &DialectRules::viewstar());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 2, "viewstar merges by name across pages");
        assert_eq!(sig.pages.len(), 2);

        let dc = build(DialectId::Cascade);
        let ex = extract_cell(&dc, dc.cell("top").unwrap(), &DialectRules::cascade());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 1, "cascade needs off-page connectors");
    }

    #[test]
    fn offpage_connectors_merge_pages_in_cascade() {
        let mut d = design_with_lib();
        d.dialect = DialectId::Cascade;
        let mut cell = CellSchematic::new("top");
        let sym = SymbolRef::new("basiclib", "inv", "symbol");
        let mut s1 = Sheet::new(1);
        s1.instances
            .push(Instance::new("I1", sym, Point::new(0, 0), Orient::R0));
        s1.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(160, 0)]).with_label(Label::new(
                "sig",
                Point::new(96, 4),
                FontMetrics::CASCADE,
            )),
        );
        s1.connectors.push(Connector::new(
            ConnectorKind::OffPage,
            "sig",
            Point::new(160, 0),
        ));
        let mut s2 = Sheet::new(2);
        s2.instances
            .push(Instance::new("I2", sym, Point::new(320, 0), Orient::R0));
        s2.wires.push(
            Wire::new(vec![Point::new(240, 0), Point::new(320, 0)]).with_label(Label::new(
                "sig",
                Point::new(260, 4),
                FontMetrics::CASCADE,
            )),
        );
        s2.connectors.push(Connector::new(
            ConnectorKind::OffPage,
            "sig",
            Point::new(240, 0),
        ));
        cell.sheets.push(s1);
        cell.sheets.push(s2);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::cascade());
        let sig = ex.net("sig").unwrap();
        assert_eq!(sig.pins.len(), 2);
        assert!(sig.has_offpage);
    }

    #[test]
    fn globals_merge_everywhere() {
        let mut d = design_with_lib();
        d.add_global("VDD");
        d.dialect = DialectId::Cascade;
        let mut cell = CellSchematic::new("top");
        let mut s1 = Sheet::new(1);
        s1.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(40, 0)]).with_label(Label::new(
                "VDD",
                Point::new(0, 4),
                FontMetrics::CASCADE,
            )),
        );
        let mut s2 = Sheet::new(2);
        s2.wires.push(
            Wire::new(vec![Point::new(100, 0), Point::new(140, 0)]).with_label(Label::new(
                "VDD",
                Point::new(100, 4),
                FontMetrics::CASCADE,
            )),
        );
        cell.sheets.push(s1);
        cell.sheets.push(s2);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::cascade());
        let vdd = ex.net("VDD").unwrap();
        assert!(vdd.is_global);
        assert_eq!(vdd.pages.len(), 2);
    }

    #[test]
    fn bundle_label_expands_to_bit_nets() {
        let mut d = design_with_lib();
        // Symbol with bus-bit pins.
        let reg = SymbolDef::new(SymbolRef::new("basiclib", "reg2", "symbol"), 16)
            .with_pin("D<0>", Point::new(0, 0), PinDir::Input)
            .with_pin("D<1>", Point::new(0, 32), PinDir::Input);
        d.library_mut("basiclib").unwrap().add(reg);

        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "R1",
            SymbolRef::new("basiclib", "reg2", "symbol"),
            Point::new(160, 0),
            Orient::R0,
        ));
        // A bus wire touching both pins (runs vertically through them).
        s.wires.push(
            Wire::new(vec![Point::new(160, 0), Point::new(160, 32)])
                .with_label(label("D<0:1>", Point::new(164, 16))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex.errors.is_empty(), "{:?}", ex.errors);
        let d0 = ex.net("D<0>").unwrap();
        assert!(d0.pins.contains(&PinRef::new("R1", "D<0>")));
        let d1 = ex.net("D<1>").unwrap();
        assert!(d1.pins.contains(&PinRef::new("R1", "D<1>")));
    }

    #[test]
    fn scalar_pin_on_bundle_is_an_error() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        // Bundle wire straight through the scalar pin A at (0,0).
        s.wires.push(
            Wire::new(vec![Point::new(0, -16), Point::new(0, 16)])
                .with_label(label("D<0:3>", Point::new(4, 0))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(ex
            .errors
            .iter()
            .any(|e| matches!(e, ConnError::BusTapMismatch { .. })));
    }

    #[test]
    fn condensed_tap_joins_bus_bit() {
        // Viewstar: a wire labelled D2 with bus D declared joins D<2>.
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        let mut s = Sheet::new(1);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(32, 0)])
                .with_label(label("D2", Point::new(0, 4))),
        );
        s.wires.push(
            Wire::new(vec![Point::new(100, 0), Point::new(132, 0)])
                .with_label(label("D<2>", Point::new(100, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        let net = ex.net("D<2>").unwrap();
        assert_eq!(net.aliases.len(), 1, "both labels expand to D<2>");
        assert_eq!(
            ex.nets
                .iter()
                .filter(|n| n.aliases.contains("D<2>"))
                .count(),
            1,
            "the two wires merged by expanded name"
        );
    }

    #[test]
    fn unresolved_symbol_reports_error() {
        let d0 = design_with_lib();
        let mut d = d0.clone();
        let mut cell = CellSchematic::new("top");
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("ghost", "none", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        cell.sheets.push(s);
        d.add_cell(cell);
        let ex = extract_cell(&d, d.cell("top").unwrap(), &DialectRules::viewstar());
        assert!(matches!(ex.errors[0], ConnError::UnresolvedSymbol { .. }));
    }

    /// The node keys `wire` touches on `page`, by the index and by
    /// brute force over every indexed node with [`Wire::touches`].
    fn touch_both_ways(index: &NodeIndex, page: u32, wire: &Wire) -> (Vec<NodeKey>, Vec<NodeKey>) {
        let mut out = Vec::new();
        index.touching(page, wire, &mut out);
        let fast = out.iter().map(|&i| index.by_x[i].0).collect();
        let brute = index
            .by_x
            .iter()
            .map(|&(k, _)| k)
            .filter(|&(pg, x, y)| pg == page && wire.touches(Point::new(x, y)))
            .collect();
        (fast, brute)
    }

    #[test]
    fn node_ids_follow_first_registration() {
        let regs = [
            (1, 5, 5),
            (1, 0, 0),
            (2, 0, 0),
            (1, 5, 5),
            (1, 0, 0),
            (1, -3, 9),
        ];
        let (index, node_of) = NodeIndex::build(&regs);
        assert_eq!(node_of, vec![0, 1, 2, 0, 1, 3]);
        let keys: Vec<NodeKey> = index.by_x.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![(1, -3, 9), (1, 0, 0), (1, 5, 5), (2, 0, 0)]);
        for (r, key) in regs.iter().enumerate() {
            let pos = keys.iter().position(|k| k == key).unwrap();
            assert_eq!(index.node(pos), node_of[r]);
        }
    }

    #[test]
    fn touch_query_matches_brute_force_on_named_cases() {
        let p = Point::new;
        let nodes: Vec<NodeKey> = (-2..=10)
            .flat_map(|x| (-2..=10).flat_map(move |y| [(1, x, y), (2, x, y)]))
            .collect();
        let (index, _) = NodeIndex::build(&nodes);
        let wires = [
            ("horizontal", vec![p(0, 3), p(8, 3)]),
            ("vertical", vec![p(4, 8), p(4, 0)]),
            ("diagonal", vec![p(0, 0), p(8, 8)]),
            ("anti-diagonal", vec![p(0, 8), p(6, 2)]),
            ("steep", vec![p(0, 0), p(2, 8)]),
            ("zero-length", vec![p(5, 5), p(5, 5)]),
            ("multi-segment", vec![p(0, 0), p(6, 0), p(6, 6), p(0, 0)]),
            ("crossing itself", vec![p(0, 4), p(8, 4), p(4, 0), p(4, 8)]),
        ];
        for (what, points) in wires {
            let wire = Wire::new(points);
            let (fast, brute) = touch_both_ways(&index, 1, &wire);
            assert_eq!(fast, brute, "{what}");
            assert!(!fast.is_empty(), "{what}");
            assert!(
                fast.iter().all(|&(pg, _, _)| pg == 1),
                "{what}: page 1 only"
            );
            assert!(
                fast.windows(2).all(|w| w[0] < w[1]),
                "{what}: ascending, once"
            );
        }
        // (6, 0) and (4, 4) each touch two segments of one wire; both are
        // reported once.
        let (fast, _) = touch_both_ways(
            &index,
            1,
            &Wire::new(vec![p(0, 0), p(6, 0), p(6, 6), p(0, 0)]),
        );
        assert_eq!(fast.iter().filter(|&&k| k == (1, 6, 0)).count(), 1);
        let (fast, _) = touch_both_ways(
            &index,
            2,
            &Wire::new(vec![p(0, 4), p(8, 4), p(4, 0), p(4, 8)]),
        );
        assert_eq!(fast.iter().filter(|&&k| k == (2, 4, 4)).count(), 1);
        // A page with no nodes has nothing to touch.
        let (fast, _) = touch_both_ways(&index, 3, &Wire::new(vec![p(0, 0), p(8, 8)]));
        assert!(fast.is_empty());
    }

    fn arb_wire() -> impl Strategy<Value = Wire> {
        let step = (0u8..5, -4i64..5, -4i64..5).prop_map(|(kind, u, v)| match kind {
            0 => (u, 0),
            1 => (0, v),
            2 => (u, u),
            3 => (u, -u),
            _ => (u, v),
        });
        ((-6i64..7, -6i64..7), prop::collection::vec(step, 1..5)).prop_map(|((x, y), steps)| {
            let mut points = vec![Point::new(x, y)];
            for (dx, dy) in steps {
                let last = *points.last().unwrap();
                points.push(Point::new(last.x + dx, last.y + dy));
            }
            Wire::new(points)
        })
    }

    proptest! {
        #[test]
        fn touch_query_matches_brute_force(
            wire in arb_wire(),
            extra in prop::collection::vec((1u32..3, -10i64..11, -10i64..11), 0..60),
        ) {
            // The wire's own vertices and segment midpoints (where they
            // fall on the grid) on both pages, plus random nodes.
            let mut nodes = extra;
            for (a, b) in wire.segments() {
                for pt in [a, b, Point::new((a.x + b.x) / 2, (a.y + b.y) / 2)] {
                    nodes.push((1, pt.x, pt.y));
                    nodes.push((2, pt.x, pt.y));
                }
            }
            let (index, _) = NodeIndex::build(&nodes);
            for page in 1..=2 {
                let (fast, brute) = touch_both_ways(&index, page, &wire);
                prop_assert_eq!(fast, brute);
            }
        }
    }

    #[test]
    fn hostile_wire_coordinates_extract_without_overflow() {
        // A wire whose coordinate differences overflow an `i64` product.
        let source = generate(&GenConfig::default());
        let mut replaced = false;
        let mut text = String::new();
        for line in crate::viewstar::write(&source).lines() {
            if !replaced && line.starts_with("W ") {
                replaced = true;
                text.push_str("W 2 0 0 4000000000000 4000000000000");
            } else {
                text.push_str(line);
            }
            text.push('\n');
        }
        assert!(replaced, "the generated design has a wire");
        let hostile = crate::viewstar::parse(&text).expect("the hostile wire is well-formed");
        let (netlist, _) = extract_design(&hostile, &DialectRules::viewstar());
        assert_eq!(netlist.cells.len(), source.cells().count());
    }

    #[test]
    fn extract_design_builds_netlist_with_ports() {
        let mut d = design_with_lib();
        let mut cell = CellSchematic::new("top");
        cell.ports.push(crate::symbol::SymbolPin::new(
            "OUT",
            Point::new(0, 0),
            PinDir::Output,
        ));
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(0, 0),
            Orient::R0,
        ));
        s.wires.push(
            Wire::new(vec![Point::new(64, 0), Point::new(96, 0)])
                .with_label(label("OUT", Point::new(70, 4))),
        );
        cell.sheets.push(s);
        d.add_cell(cell);

        let (nl, errs) = extract_design(&d, &DialectRules::viewstar());
        assert!(errs.is_empty());
        let top = &nl.cells["top"];
        assert!(top.nets["OUT"].ports.contains("OUT"));
        assert_eq!(top.instances["I1"], "inv");
    }
}
