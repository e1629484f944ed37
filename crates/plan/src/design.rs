//! One list of systems: every system the paper's Figures 5–8 compare is a
//! [`Design`], and one [`Stores`] over a set of tables runs a statement on
//! any of them. The column engine is built (or adopted) with the set; every
//! other design's store is built from the engine's compressed store on
//! first use: from the tables it holds, or decodes, and the pre-joined
//! tables through its fact order.

use crate::enumerate::{PhysicalChoice, PlanShape};
use cvr_core::ctx::catch_injected;
use cvr_core::morsel::Parallelism;
use cvr_core::{ColumnEngine, DenormDb, DenormVariant, EngineConfig, ExecOptions};
use cvr_core::{QueryError, RowMvDb};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_row::designs::{RowDb, RowDesign};
use cvr_storage::io::IoSession;
use std::sync::{Arc, OnceLock};

/// One system of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// The column engine under an ablation-letter configuration (Figure 7).
    Column(EngineConfig),
    /// A row-store physical design (Figure 6).
    Row(RowDesign),
    /// A pre-joined fact table in the column store (Figure 8).
    PreJoined(DenormVariant),
    /// Rows stored as strings in the column store: Figure 5's CS (Row-MV).
    RowMv,
}

impl Design {
    /// Every system: the sixteen column configurations, the six row designs,
    /// the three pre-joined tables and CS (Row-MV).
    pub fn all() -> Vec<Design> {
        let rows = RowDesign::EXTENDED.into_iter().map(Design::Row);
        let pre_joined = DenormVariant::ALL.into_iter().map(Design::PreJoined);
        Design::columns().chain(rows).chain(pre_joined).chain([Design::RowMv]).collect()
    }

    /// The sixteen column-engine configurations.
    pub fn columns() -> impl Iterator<Item = Design> {
        EngineConfig::all().into_iter().map(Design::Column)
    }

    /// The six column configurations the planner ranks: each
    /// [`PlanShape`], compressed and not.
    pub fn plan_shapes() -> Vec<Design> {
        let compressions =
            |shape: PlanShape| [true, false].map(|c| Design::Column(shape.config(c)));
        PlanShape::ALL.into_iter().flat_map(compressions).collect()
    }

    /// Figure 5's systems, by their figure labels.
    pub fn figure5() -> [(&'static str, Design); 4] {
        [
            ("RS", Design::Row(RowDesign::Traditional)),
            ("RS (MV)", Design::Row(RowDesign::MaterializedViews)),
            ("CS", Design::Column(EngineConfig::FULL)),
            ("CS (Row-MV)", Design::RowMv),
        ]
    }

    /// Figure 6's row designs, by their codes.
    pub fn figure6() -> [(&'static str, Design); 5] {
        RowDesign::ALL.map(|d| (d.label(), Design::Row(d)))
    }

    /// Figure 7's column store with optimizations successively removed, in
    /// the paper's order.
    pub fn figure7() -> [(&'static str, Design); 7] {
        ["tICL", "TICL", "tiCL", "TiCL", "ticL", "TicL", "Ticl"]
            .map(|code| (code, Design::Column(EngineConfig::parse(code))))
    }

    /// Figure 8's invisible-join baseline, then the three pre-joined tables.
    pub fn figure8() -> [(&'static str, Design); 4] {
        let [no, int, max] = DenormVariant::ALL.map(|v| (v.label(), Design::PreJoined(v)));
        [("Base", Design::Column(EngineConfig::FULL)), no, int, max]
    }

    /// Short label: `tICL`, a row design's code prefixed `row:` (`row:MV`),
    /// a pre-joined table's Figure 8 label (`PJ, Max C`), or `CS (Row-MV)`.
    pub fn label(&self) -> String {
        match self {
            Design::Column(cfg) => cfg.code(),
            Design::Row(d) => format!("row:{}", d.label()),
            Design::PreJoined(v) => v.label().to_string(),
            Design::RowMv => "CS (Row-MV)".to_string(),
        }
    }

    /// Whether this system's store holds every column `q` reads. The column
    /// engine holds every column; the others hold the paper workload's.
    pub fn answers(&self, q: &SsbQuery) -> bool {
        match self {
            Design::Column(_) => true,
            Design::Row(d) => d.answers(q),
            Design::PreJoined(_) => DenormDb::answers(q),
            Design::RowMv => RowMvDb::answers(q),
        }
    }
}

impl From<PhysicalChoice> for Design {
    fn from(choice: PhysicalChoice) -> Design {
        match choice {
            PhysicalChoice::Column(cfg) => Design::Column(cfg),
            PhysicalChoice::Row(d) => Design::Row(d),
        }
    }
}

/// The store of every [`Design`] over one set of tables: the
/// [`ColumnEngine`], and a slot for each other design's store, built in it
/// by the first statement that needs it, so a build blocks only the
/// statements of its design, and one that panics leaves its slot empty.
pub struct Stores {
    engine: ColumnEngine,
    slots: Slots,
}

/// The slots of the designs besides the column engine's, in
/// [`RowDesign::EXTENDED`] and [`DenormVariant::ALL`] order.
#[derive(Default)]
struct Slots {
    rows: [OnceLock<RowDb>; RowDesign::EXTENDED.len()],
    pre_joined: [OnceLock<DenormDb>; DenormVariant::ALL.len()],
    row_mv: OnceLock<RowMvDb>,
}

impl Stores {
    /// The stores over `tables`: the column engine, built on `par`, and no
    /// other design's yet.
    pub fn new(tables: Arc<SsbTables>, par: Parallelism) -> Stores {
        Stores::adopted(ColumnEngine::with_parallelism(tables, par))
    }

    /// The stores around a column engine, built or adopted
    /// ([`ColumnEngine::adopt`]), and no other design's yet.
    pub fn adopted(engine: ColumnEngine) -> Stores {
        Stores { engine, slots: Slots::default() }
    }

    /// The tables every store is built from: the engine's compressed
    /// store's ([`cvr_core::CStoreDb::tables`]; an adopted one decodes them
    /// on first use).
    pub fn tables(&self) -> &Arc<SsbTables> {
        self.engine.db(EngineConfig::FULL).tables()
    }

    /// The column engine.
    pub fn engine(&self) -> &ColumnEngine {
        &self.engine
    }

    /// Run `q` on `design` as `opts` says, building its store on first use.
    /// Lifecycle aborts and injected storage faults ([`QueryError::Io`])
    /// surface as typed errors. Row designs run serially, without morsel
    /// boundaries: they check `opts.ctx` once, before they start.
    pub fn run(
        &self,
        design: Design,
        q: &SsbQuery,
        opts: &ExecOptions<'_>,
        io: &IoSession,
    ) -> Result<QueryOutput, QueryError> {
        match design {
            Design::Column(cfg) => self.engine.run(q, cfg, opts, io),
            Design::Row(d) => {
                opts.ctx.check()?;
                let slot = &self.slots.rows[index(&RowDesign::EXTENDED, d)];
                catch_injected(|| {
                    let db = slot.get_or_init(|| RowDb::build(self.tables().clone(), d));
                    match opts.fact_order {
                        Some(order) => db.execute_planned(q, order, io),
                        None => db.execute(q, io),
                    }
                })
            }
            Design::PreJoined(v) => {
                let slot = &self.slots.pre_joined[index(&DenormVariant::ALL, v)];
                let db = || DenormDb::build(self.engine.db(EngineConfig::FULL), v);
                slot.get_or_init(db).run(q, opts, io)
            }
            Design::RowMv => {
                let slot = &self.slots.row_mv;
                slot.get_or_init(|| RowMvDb::build(self.tables())).run(q, opts, io)
            }
        }
    }

    /// The designs besides the column engine whose stores are built.
    pub fn built(&self) -> Vec<Design> {
        let Slots { rows, pre_joined, row_mv } = &self.slots;
        let rows = rows.iter().map(|s| s.get().map(|db| Design::Row(db.design())));
        let pre_joined = pre_joined.iter().map(|s| s.get().map(|db| Design::PreJoined(db.variant)));
        let row_mv = row_mv.get().map(|_| Design::RowMv);
        rows.chain(pre_joined).chain([row_mv]).flatten().collect()
    }

    /// Drop every built store except the column engine's.
    pub fn release(&mut self) {
        self.slots = Slots::default();
    }
}

/// The slot of `item` in `list`, which lists every value of its type.
fn index<T: PartialEq>(list: &[T], item: T) -> usize {
    list.iter().position(|x| *x == item).expect("a complete list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::query;
    use cvr_data::reference;

    /// Regression: a panic under the one mutex that once guarded every row
    /// design poisoned it for every later row-plan statement. A design's
    /// slot has no lock to poison: a panicking build leaves it empty and the
    /// next statement builds. Releasing keeps only the column engine.
    #[test]
    fn a_panicking_build_leaves_its_slot_empty_and_release_keeps_the_engine() {
        let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
        let mut stores = Stores::new(tables.clone(), Parallelism::serial());
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stores.slots.rows[0].get_or_init(|| panic!("build failed"))
        }));
        assert!(failed.is_err(), "the build's panic reaches the statement that ran it");
        assert!(stores.built().is_empty(), "nothing built");
        assert!(Arc::ptr_eq(stores.tables(), &tables), "the engine's store holds the tables");
        let (q, io) = (query(2, 1), IoSession::unmetered());
        for (_, design) in Design::figure5().into_iter().chain(Design::figure5()) {
            let got = stores.run(design, &q, &ExecOptions::default(), &io);
            assert_eq!(got, Ok(reference::evaluate(&tables, &q)), "{}", design.label());
        }
        let built = [RowDesign::Traditional, RowDesign::MaterializedViews].map(Design::Row);
        assert_eq!(stores.built(), [built[0], built[1], Design::RowMv], "each built once");
        stores.release();
        assert!(stores.built().is_empty() && Arc::ptr_eq(stores.tables(), &tables));
    }

    /// A row design's storage faults surface as a typed error, not a panic,
    /// and the design then answers like the reference. The `paper` binary
    /// and the differential tests run row designs through this arm.
    #[test]
    fn a_row_design_types_injected_faults_then_answers() {
        let tables = Arc::new(SsbConfig::with_scale(0.00002).generate());
        let stores = Stores::new(tables.clone(), Parallelism::serial());
        let (design, q) = (Design::Row(RowDesign::TraditionalBitmap), query(2, 1));
        let run = || stores.run(design, &q, &ExecOptions::default(), &IoSession::unmetered());
        let faults =
            cvr_storage::fault::adopt(cvr_storage::fault::FaultState::from_spec("io:1").unwrap());
        match run() {
            Err(QueryError::Io { detail }) => assert!(detail.contains("injected"), "{detail}"),
            other => panic!("expected an injected I/O error, got {other:?}"),
        }
        drop(faults);
        assert_eq!(run(), Ok(reference::evaluate(&tables, &q)));
        assert_eq!(stores.built(), [design]);
    }

    /// Regression: designs used to be built while holding that one mutex,
    /// so a slow build (`T(B)`: seconds) stalled statements whose own design
    /// had been built long before.
    #[test]
    fn a_built_design_answers_while_another_designs_build_is_blocked() {
        use std::sync::mpsc;
        let tables = Arc::new(SsbConfig::with_scale(0.00002).generate());
        let stores = Stores::new(tables.clone(), Parallelism::serial());
        let (built, blocked) = (RowDesign::Traditional, RowDesign::TraditionalBitmap);
        let q = query(1, 1);
        let run =
            || stores.run(Design::Row(built), &q, &ExecOptions::default(), &IoSession::unmetered());
        run().unwrap();

        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (stores, tables) = (&stores, &tables);
        std::thread::scope(|s| {
            let blocking = s.spawn(move || {
                stores.slots.rows[index(&RowDesign::EXTENDED, blocked)].get_or_init(|| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    RowDb::build(tables.clone(), blocked)
                });
            });
            entered_rx.recv().unwrap(); // the T(B) build now holds its slot
            let (done_tx, done_rx) = mpsc::channel();
            s.spawn(move || done_tx.send(run()).unwrap());
            let answered = done_rx.recv_timeout(std::time::Duration::from_secs(60));
            release_tx.send(()).unwrap();
            let got = answered.expect("a built design must not wait for another's build");
            assert_eq!(got, Ok(reference::evaluate(tables, &q)));
            blocking.join().unwrap();
        });
        assert_eq!(stores.built(), [Design::Row(built), Design::Row(blocked)]);
    }
}
