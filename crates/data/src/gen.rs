//! Deterministic SSBM data generator.
//!
//! Reproduces the value distributions of the SSB `dbgen` tool that matter to
//! the paper's experiments:
//!
//! * dimension hierarchies — 5 regions × 5 nations × 10 cities,
//!   5 manufacturers × 5 categories × 40 brands, year → month → day — which
//!   drive the *between-predicate rewriting* opportunities of Section 5.4.2;
//! * uniform foreign keys, `lo_quantity ∈ 1..=50`, `lo_discount ∈ 0..=10`,
//!   and `lo_orderdate` uniform over the 7-year calendar — which together
//!   reproduce the thirteen LINEORDER selectivities quoted in Section 3
//!   (1.9×10⁻² for Q1.1 down to 7.6×10⁻⁷ for Q3.4);
//! * table cardinalities as given in Figure 1 (`LINEORDER = 6 000 000 × SF`,
//!   `CUSTOMER = 30 000 × SF`, `SUPPLIER = 2 000 × SF`,
//!   `PART = 200 000 × (1 + ⌊log₂ SF⌋)`, `DATE = one row per day`).
//!
//! The generator is seeded and uses a local SplitMix64 PRNG
//! ([`rng::SplitMix64`]) so outputs are byte-stable across platforms and
//! dependency upgrades — important because the integration tests assert
//! exact aggregate values across engines.

use crate::date::{all_dates, month_name, weekday_name, CalDate};
use crate::schema::{star_schema, StarSchema};
use crate::table::{ColumnData, PlainInts, Strs, TableData};

/// Minimal deterministic PRNG (SplitMix64). Public so tests and benches can
/// derive reproducible synthetic columns from the same stream family.
pub mod rng {
    /// SplitMix64: tiny, fast, well-distributed; byte-stable forever.
    #[derive(Debug, Clone)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Create a generator from a seed.
        pub fn new(seed: u64) -> Self {
            SplitMix64 { state: seed }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform integer in `lo..=hi`.
        pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
            debug_assert!(lo <= hi);
            let span = (hi - lo) as u64 + 1;
            lo + (self.next_u64() % span) as i64
        }

        /// Uniform index in `0..n`.
        pub fn index(&mut self, n: usize) -> usize {
            debug_assert!(n > 0);
            (self.next_u64() % n as u64) as usize
        }

        /// Pick a uniform element of `xs`.
        pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[self.index(xs.len())]
        }
    }
}

use rng::SplitMix64;

// The seeded ad-hoc query generator rides alongside the data generator: both
// are deterministic draws from the same SSB value domains.
pub use crate::workload::{generate_queries, WorkloadConfig, GENERATED_FLIGHT};

/// The five SSB regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 SSB nations, 5 per region (TPC-H nation/region mapping).
/// `NATIONS[r]` lists the nations of `REGIONS[r]`.
pub const NATIONS: [[&str; 5]; 5] = [
    ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"],
    ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"],
    ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"],
    ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"],
    ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"],
];

/// Market segments for `c_mktsegment`.
pub const MKT_SEGMENTS: [&str; 5] =
    ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];

/// Order priorities for `lo_ordpriority`.
pub const ORD_PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Ship modes for `lo_shipmode`.
pub const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];

/// Part colors (subset of dbgen's list; cardinality is what matters).
pub const COLORS: [&str; 32] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
];

/// Part container sizes and kinds (5 × 8 = 40 combinations, as in dbgen).
pub const CONTAINER_SIZES: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
/// Container kinds.
pub const CONTAINER_KINDS: [&str; 8] = ["BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK", "PKG"];

/// Part type syllables (6 × 5 × 5 = 150 types, as in dbgen).
pub const TYPE_S1: [&str; 6] = ["ANODIZED", "BURNISHED", "ECONOMY", "LARGE", "PROMO", "STANDARD"];
/// Second syllable.
pub const TYPE_S2: [&str; 5] = ["BRUSHED", "PLATED", "POLISHED", "SMALL", "STEEL"];
/// Third syllable.
pub const TYPE_S3: [&str; 5] = ["BRASS", "COPPER", "NICKEL", "STEEL", "TIN"];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsbConfig {
    /// Scale factor. SF 1 ⇒ 6 M LINEORDER rows (the paper runs SF 10).
    /// Fractional scale factors shrink every table proportionally so tests
    /// and CI-friendly benchmark runs stay fast.
    pub sf: f64,
    /// PRNG seed; two configs with equal `sf` and `seed` generate identical
    /// tables.
    pub seed: u64,
}

impl SsbConfig {
    /// Config at `sf` with the default seed.
    pub fn with_scale(sf: f64) -> Self {
        SsbConfig { sf, seed: 0x55B0_2008 }
    }

    /// Number of LINEORDER rows at this scale.
    pub fn lineorder_rows(&self) -> usize {
        ((6_000_000.0 * self.sf).round() as usize).max(1)
    }

    /// Number of CUSTOMER rows at this scale.
    pub fn customer_rows(&self) -> usize {
        ((30_000.0 * self.sf).round() as usize).max(5)
    }

    /// Number of SUPPLIER rows at this scale.
    pub fn supplier_rows(&self) -> usize {
        ((2_000.0 * self.sf).round() as usize).max(5)
    }

    /// Number of PART rows at this scale.
    ///
    /// SSB defines `200 000 × (1 + ⌊log₂ SF⌋)` for SF ≥ 1; for fractional
    /// scale factors we shrink linearly so the FK space stays proportionate.
    pub fn part_rows(&self) -> usize {
        let base = 200_000.0 * (1.0 + self.sf.max(1.0).log2().floor());
        ((base * self.sf.min(1.0)).round() as usize).max(40)
    }

    /// Generate all five tables.
    pub fn generate(self) -> SsbTables {
        generate(self)
    }
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig::with_scale(0.01)
    }
}

/// The generated star-schema database.
#[derive(Debug, Clone)]
pub struct SsbTables {
    /// Configuration the tables were generated with.
    pub config: SsbConfig,
    /// The schema (identical to [`star_schema`]).
    pub schema: StarSchema,
    /// LINEORDER fact table.
    pub lineorder: TableData,
    /// CUSTOMER dimension.
    pub customer: TableData,
    /// SUPPLIER dimension.
    pub supplier: TableData,
    /// PART dimension.
    pub part: TableData,
    /// DATE dimension.
    pub date: TableData,
}

impl SsbTables {
    /// Dimension table by enum.
    pub fn dim(&self, d: crate::schema::Dim) -> &TableData {
        match d {
            crate::schema::Dim::Customer => &self.customer,
            crate::schema::Dim::Supplier => &self.supplier,
            crate::schema::Dim::Part => &self.part,
            crate::schema::Dim::Date => &self.date,
        }
    }
}

/// City name: nation padded/truncated to 9 characters + a digit `0..=9`,
/// e.g. `"UNITED KI1"` (from UNITED KINGDOM) — exactly dbgen's scheme, which
/// queries Q3.3/Q3.4 rely on.
pub fn city_name(nation: &str, suffix: i64) -> String {
    let mut base: String = nation.chars().take(9).collect();
    while base.len() < 9 {
        base.push(' ');
    }
    // Callers draw `suffix` from `0..=9`, a decimal digit.
    base.push(char::from_digit(suffix as u32, 10).unwrap());
    base
}

fn push_phone(out: &mut Strs, rng: &mut SplitMix64) {
    out.push_fmt(format_args!(
        "{:02}-{:03}-{:03}-{:04}",
        rng.int_range(10, 34),
        rng.int_range(100, 999),
        rng.int_range(100, 999),
        rng.int_range(1000, 9999)
    ));
}

/// Append a random address, built in the reused `buf`.
fn push_address(out: &mut Strs, buf: &mut String, rng: &mut SplitMix64) {
    // dbgen emits v-strings; a short random alphanumeric suffices (the
    // workload never touches addresses).
    let len = rng.int_range(10, 20) as usize;
    buf.clear();
    for _ in 0..len {
        let c = b'a' + (rng.next_u64() % 26) as u8;
        buf.push(c as char);
    }
    out.push(buf);
}

fn gen_customer(n: usize, seed: u64) -> TableData {
    let mut rng = SplitMix64::new(seed ^ 0xC057);
    let mut key = PlainInts::with_capacity(n);
    let [mut name, mut addr, mut city, mut nation, mut region, mut ph, mut seg] =
        std::array::from_fn(|_| Strs::with_capacity(n, 0));
    let mut buf = String::new();
    for i in 0..n {
        let r = rng.index(5);
        let nat = *rng.pick(&NATIONS[r]);
        key.push(i as i64 + 1);
        name.push_fmt(format_args!("Customer#{:09}", i + 1));
        push_address(&mut addr, &mut buf, &mut rng);
        city.push(&city_name(nat, rng.int_range(0, 9)));
        nation.push(nat);
        region.push(REGIONS[r]);
        push_phone(&mut ph, &mut rng);
        seg.push(rng.pick::<&str>(&MKT_SEGMENTS));
    }
    TableData::new(
        star_schema().customer,
        vec![
            ColumnData::Int(key),
            ColumnData::Str(name),
            ColumnData::Str(addr),
            ColumnData::Str(city),
            ColumnData::Str(nation),
            ColumnData::Str(region),
            ColumnData::Str(ph),
            ColumnData::Str(seg),
        ],
    )
}

fn gen_supplier(n: usize, seed: u64) -> TableData {
    let mut rng = SplitMix64::new(seed ^ 0x5A11);
    let mut key = PlainInts::with_capacity(n);
    let [mut name, mut addr, mut city, mut nation, mut region, mut ph] =
        std::array::from_fn(|_| Strs::with_capacity(n, 0));
    let mut buf = String::new();
    for i in 0..n {
        let r = rng.index(5);
        let nat = *rng.pick(&NATIONS[r]);
        key.push(i as i64 + 1);
        name.push_fmt(format_args!("Supplier#{:09}", i + 1));
        push_address(&mut addr, &mut buf, &mut rng);
        city.push(&city_name(nat, rng.int_range(0, 9)));
        nation.push(nat);
        region.push(REGIONS[r]);
        push_phone(&mut ph, &mut rng);
    }
    TableData::new(
        star_schema().supplier,
        vec![
            ColumnData::Int(key),
            ColumnData::Str(name),
            ColumnData::Str(addr),
            ColumnData::Str(city),
            ColumnData::Str(nation),
            ColumnData::Str(region),
            ColumnData::Str(ph),
        ],
    )
}

fn gen_part(n: usize, seed: u64) -> TableData {
    let mut rng = SplitMix64::new(seed ^ 0x9A47);
    let mut key = PlainInts::with_capacity(n);
    let mut size = PlainInts::with_capacity(n);
    let [mut name, mut mfgr, mut category, mut brand1, mut color, mut ptype, mut container] =
        std::array::from_fn(|_| Strs::with_capacity(n, 0));
    for i in 0..n {
        let m = rng.int_range(1, 5);
        let c = rng.int_range(1, 5);
        let b = rng.int_range(1, 40);
        key.push(i as i64 + 1);
        name.push_fmt(format_args!("{} {}", rng.pick(&COLORS), rng.pick(&COLORS)));
        mfgr.push_fmt(format_args!("MFGR#{m}"));
        category.push_fmt(format_args!("MFGR#{m}{c}"));
        brand1.push_fmt(format_args!("MFGR#{m}{c}{b:02}"));
        color.push(rng.pick::<&str>(&COLORS));
        ptype.push_fmt(format_args!(
            "{} {} {}",
            rng.pick(&TYPE_S1),
            rng.pick(&TYPE_S2),
            rng.pick(&TYPE_S3)
        ));
        size.push(rng.int_range(1, 50));
        container.push_fmt(format_args!(
            "{} {}",
            rng.pick(&CONTAINER_SIZES),
            rng.pick(&CONTAINER_KINDS)
        ));
    }
    TableData::new(
        star_schema().part,
        vec![
            ColumnData::Int(key),
            ColumnData::Str(name),
            ColumnData::Str(mfgr),
            ColumnData::Str(category),
            ColumnData::Str(brand1),
            ColumnData::Str(color),
            ColumnData::Str(ptype),
            ColumnData::Int(size),
            ColumnData::Str(container),
        ],
    )
}

fn gen_date() -> TableData {
    let dates = all_dates();
    let n = dates.len();
    let mut datekey = PlainInts::with_capacity(n);
    let mut year = PlainInts::with_capacity(n);
    let mut yearmonthnum = PlainInts::with_capacity(n);
    let mut daynuminweek = PlainInts::with_capacity(n);
    let mut daynuminmonth = PlainInts::with_capacity(n);
    let mut daynuminyear = PlainInts::with_capacity(n);
    let mut monthnuminyear = PlainInts::with_capacity(n);
    let mut weeknuminyear = PlainInts::with_capacity(n);
    let mut lastdayinweekfl = PlainInts::with_capacity(n);
    let mut lastdayinmonthfl = PlainInts::with_capacity(n);
    let mut holidayfl = PlainInts::with_capacity(n);
    let mut weekdayfl = PlainInts::with_capacity(n);
    let [mut datestr, mut dayofweek, mut month, mut yearmonth, mut sellingseason] =
        std::array::from_fn(|_| Strs::with_capacity(n, 0));
    for d in &dates {
        let dow = d.day_of_week();
        datekey.push(d.datekey());
        datestr.push_fmt(format_args!("{} {}, {}", month_name(d.month), d.day, d.year));
        dayofweek.push(weekday_name(dow));
        month.push(month_name(d.month));
        year.push(d.year);
        yearmonthnum.push(d.year * 100 + d.month);
        yearmonth.push_fmt(format_args!("{}{}", month_name(d.month), d.year));
        daynuminweek.push(dow);
        daynuminmonth.push(d.day);
        daynuminyear.push(d.day_of_year());
        monthnuminyear.push(d.month);
        weeknuminyear.push(d.week_of_year());
        sellingseason.push(match d.month {
            12 | 1 => "Christmas",
            2..=4 => "Spring",
            5..=7 => "Summer",
            8..=10 => "Fall",
            _ => "Winter",
        });
        lastdayinweekfl.push(i64::from(dow == 7));
        lastdayinmonthfl.push(i64::from(d.day == crate::date::days_in_month(d.year, d.month)));
        holidayfl.push(i64::from((d.month == 12 && d.day == 25) || (d.month == 1 && d.day == 1)));
        weekdayfl.push(i64::from(dow <= 5));
    }
    TableData::new(
        star_schema().date,
        vec![
            ColumnData::Int(datekey),
            ColumnData::Str(datestr),
            ColumnData::Str(dayofweek),
            ColumnData::Str(month),
            ColumnData::Int(year),
            ColumnData::Int(yearmonthnum),
            ColumnData::Str(yearmonth),
            ColumnData::Int(daynuminweek),
            ColumnData::Int(daynuminmonth),
            ColumnData::Int(daynuminyear),
            ColumnData::Int(monthnuminyear),
            ColumnData::Int(weeknuminyear),
            ColumnData::Str(sellingseason),
            ColumnData::Int(lastdayinweekfl),
            ColumnData::Int(lastdayinmonthfl),
            ColumnData::Int(holidayfl),
            ColumnData::Int(weekdayfl),
        ],
    )
}

fn gen_lineorder(
    n: usize,
    seed: u64,
    n_cust: usize,
    n_supp: usize,
    n_part: usize,
    dates: &[CalDate],
) -> TableData {
    let mut rng = SplitMix64::new(seed ^ 0x11E0);
    // Each integer column starts at one byte a value and widens once per
    // width its values reach, so no column is ever held wider than it needs.
    let mut orderkey = PlainInts::with_capacity(n);
    let mut linenumber = PlainInts::with_capacity(n);
    let mut custkey = PlainInts::with_capacity(n);
    let mut partkey = PlainInts::with_capacity(n);
    let mut suppkey = PlainInts::with_capacity(n);
    let mut orderdate = PlainInts::with_capacity(n);
    let mut shippriority = PlainInts::with_capacity(n);
    let mut quantity = PlainInts::with_capacity(n);
    let mut extendedprice = PlainInts::with_capacity(n);
    let mut ordtotalprice = PlainInts::with_capacity(n);
    let mut discount = PlainInts::with_capacity(n);
    let mut revenue = PlainInts::with_capacity(n);
    let mut supplycost = PlainInts::with_capacity(n);
    let mut tax = PlainInts::with_capacity(n);
    let mut commitdate = PlainInts::with_capacity(n);
    let [mut ordpriority, mut shipmode] = std::array::from_fn(|_| Strs::with_capacity(n, 0));

    let mut ok: i64 = 0;
    while orderkey.len() < n {
        ok += 1;
        // Orders have 1..=7 lines (mean 4), like TPC-H/SSB.
        let lines = rng.int_range(1, 7).min((n - orderkey.len()) as i64);
        let o_cust = rng.int_range(1, n_cust as i64);
        let o_date = *rng.pick(dates);
        let o_prio = *rng.pick(&ORD_PRIORITIES);
        let mut total = 0i64;
        for ln in 1..=lines {
            let pk = rng.int_range(1, n_part as i64);
            // Unit price is a deterministic function of the part, like
            // dbgen's retail-price formula; magnitudes are cents.
            let unit_price = 90_000 + (pk * 7) % 110_000;
            let qty = rng.int_range(1, 50);
            let eprice = qty * unit_price;
            let disc = rng.int_range(0, 10);
            orderkey.push(ok);
            linenumber.push(ln);
            custkey.push(o_cust);
            partkey.push(pk);
            suppkey.push(rng.int_range(1, n_supp as i64));
            orderdate.push(o_date.datekey());
            ordpriority.push(o_prio);
            shippriority.push(0);
            quantity.push(qty);
            extendedprice.push(eprice);
            discount.push(disc);
            revenue.push(eprice * (100 - disc) / 100);
            supplycost.push(unit_price * 6 / 10);
            tax.push(rng.int_range(0, 8));
            commitdate.push(o_date.plus_days_clamped(rng.int_range(30, 90)).datekey());
            shipmode.push(rng.pick::<&str>(&SHIP_MODES));
            total += eprice;
        }
        // Every line of an order carries the order's total.
        for _ in 0..lines {
            ordtotalprice.push(total);
        }
    }
    ordpriority.shrink_to_fit();
    shipmode.shrink_to_fit();

    TableData::new(
        star_schema().lineorder,
        vec![
            ColumnData::Int(orderkey),
            ColumnData::Int(linenumber),
            ColumnData::Int(custkey),
            ColumnData::Int(partkey),
            ColumnData::Int(suppkey),
            ColumnData::Int(orderdate),
            ColumnData::Str(ordpriority),
            ColumnData::Int(shippriority),
            ColumnData::Int(quantity),
            ColumnData::Int(extendedprice),
            ColumnData::Int(ordtotalprice),
            ColumnData::Int(discount),
            ColumnData::Int(revenue),
            ColumnData::Int(supplycost),
            ColumnData::Int(tax),
            ColumnData::Int(commitdate),
            ColumnData::Str(shipmode),
        ],
    )
}

/// Generate the full SSBM database for `config`.
pub fn generate(config: SsbConfig) -> SsbTables {
    let schema = star_schema();
    let customer = gen_customer(config.customer_rows(), config.seed);
    let supplier = gen_supplier(config.supplier_rows(), config.seed);
    let part = gen_part(config.part_rows(), config.seed);
    let date = gen_date();
    let dates = all_dates();
    let lineorder = gen_lineorder(
        config.lineorder_rows(),
        config.seed,
        config.customer_rows(),
        config.supplier_rows(),
        config.part_rows(),
        &dates,
    );
    SsbTables { config, schema, lineorder, customer, supplier, part, date }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dim;

    fn tiny() -> SsbTables {
        SsbConfig { sf: 0.001, seed: 42 }.generate()
    }

    #[test]
    fn cardinalities_scale() {
        let t = tiny();
        assert_eq!(t.lineorder.num_rows(), 6_000);
        assert_eq!(t.customer.num_rows(), 30);
        assert_eq!(t.date.num_rows(), 2_557);
        assert_eq!(t.part.num_rows(), 200);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SsbConfig { sf: 0.0005, seed: 7 }.generate();
        let b = SsbConfig { sf: 0.0005, seed: 7 }.generate();
        assert_eq!(a.lineorder.column("lo_revenue"), b.lineorder.column("lo_revenue"));
        assert_eq!(a.customer.column("c_city"), b.customer.column("c_city"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SsbConfig { sf: 0.0005, seed: 7 }.generate();
        let b = SsbConfig { sf: 0.0005, seed: 8 }.generate();
        assert_ne!(a.lineorder.column("lo_custkey"), b.lineorder.column("lo_custkey"));
    }

    #[test]
    fn foreign_keys_reference_dimensions() {
        let t = tiny();
        let ncust = t.customer.num_rows() as i64;
        for k in t.lineorder.column("lo_custkey").ints().decode() {
            assert!((1..=ncust).contains(&k));
        }
        let nsupp = t.supplier.num_rows() as i64;
        for k in t.lineorder.column("lo_suppkey").ints().decode() {
            assert!((1..=nsupp).contains(&k));
        }
        let npart = t.part.num_rows() as i64;
        for k in t.lineorder.column("lo_partkey").ints().decode() {
            assert!((1..=npart).contains(&k));
        }
        let datekeys: std::collections::HashSet<i64> =
            t.date.column("d_datekey").ints().decode().into_iter().collect();
        for k in t.lineorder.column("lo_orderdate").ints().decode() {
            assert!(datekeys.contains(&k), "orderdate {k} not in DATE");
        }
    }

    #[test]
    fn value_domains() {
        let t = tiny();
        for q in t.lineorder.column("lo_quantity").ints().decode() {
            assert!((1..=50).contains(&q));
        }
        for d in t.lineorder.column("lo_discount").ints().decode() {
            assert!((0..=10).contains(&d));
        }
        for x in t.lineorder.column("lo_tax").ints().decode() {
            assert!((0..=8).contains(&x));
        }
        for r in t.customer.column("c_region").strs() {
            assert!(REGIONS.contains(&r));
        }
    }

    #[test]
    fn revenue_formula_holds() {
        let t = tiny();
        let ep = t.lineorder.column("lo_extendedprice").ints().decode();
        let disc = t.lineorder.column("lo_discount").ints().decode();
        let rev = t.lineorder.column("lo_revenue").ints().decode();
        for i in 0..t.lineorder.num_rows() {
            assert_eq!(rev[i], ep[i] * (100 - disc[i]) / 100);
        }
    }

    #[test]
    fn city_names_are_ten_chars_with_digit() {
        let t = tiny();
        for c in t.customer.column("c_city").strs() {
            assert_eq!(c.len(), 10, "bad city {c:?}");
            assert!(c.as_bytes()[9].is_ascii_digit());
        }
        assert_eq!(city_name("UNITED KINGDOM", 1), "UNITED KI1");
        assert_eq!(city_name("CHINA", 3), "CHINA    3");
    }

    #[test]
    fn brand_hierarchy_nests() {
        let t = tiny();
        let mfgr = t.part.column("p_mfgr").strs();
        let cat = t.part.column("p_category").strs();
        let brand = t.part.column("p_brand1").strs();
        for i in 0..t.part.num_rows() {
            assert!(cat[i].starts_with(&mfgr[i]), "{} !< {}", &mfgr[i], &cat[i]);
            assert!(brand[i].starts_with(&cat[i]), "{} !< {}", &cat[i], &brand[i]);
            assert_eq!(brand[i].len(), "MFGR#1101".len());
        }
    }

    #[test]
    fn commitdate_follows_orderdate() {
        let t = tiny();
        let od = t.lineorder.column("lo_orderdate").ints().decode();
        let cd = t.lineorder.column("lo_commitdate").ints().decode();
        for i in 0..t.lineorder.num_rows() {
            assert!(cd[i] >= od[i], "commit {} before order {}", cd[i], od[i]);
        }
    }

    #[test]
    fn ordtotalprice_is_order_sum() {
        let t = tiny();
        let ok = t.lineorder.column("lo_orderkey").ints().decode();
        let ep = t.lineorder.column("lo_extendedprice").ints().decode();
        let tot = t.lineorder.column("lo_ordtotalprice").ints().decode();
        let mut sums: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for i in 0..t.lineorder.num_rows() {
            *sums.entry(ok[i]).or_default() += ep[i];
        }
        for i in 0..t.lineorder.num_rows() {
            assert_eq!(tot[i], sums[&ok[i]]);
        }
    }

    #[test]
    fn every_integer_column_is_held_at_its_narrowest_width() {
        let t = SsbConfig { sf: 0.01, seed: 3 }.generate();
        for table in [&t.lineorder, &t.customer, &t.supplier, &t.part, &t.date] {
            for (def, col) in table.schema.columns.iter().zip(&table.columns) {
                if let ColumnData::Int(v) = col {
                    let name = (table.schema.name, def.name);
                    assert_eq!(v.width(), v.narrowest_width(), "{name:?}");
                }
            }
        }
    }

    #[test]
    fn dim_accessor() {
        let t = tiny();
        assert_eq!(t.dim(Dim::Customer).num_rows(), t.customer.num_rows());
        assert_eq!(t.dim(Dim::Date).num_rows(), 2557);
    }

    #[test]
    fn splitmix_ranges() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = r.int_range(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        let mut r2 = SplitMix64::new(1);
        let a: Vec<u64> = (0..10).map(|_| r2.next_u64()).collect();
        let mut r3 = SplitMix64::new(1);
        let b: Vec<u64> = (0..10).map(|_| r3.next_u64()).collect();
        assert_eq!(a, b);
    }
}
