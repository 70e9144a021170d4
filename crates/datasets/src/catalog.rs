//! Product catalogues: the entity universe behind a benchmark.
//!
//! A [`Product`] is a real-world entity (the paper's `e ∈ E` under the
//! equivalence intent); its records are duplicated representations produced
//! by title perturbation. Products carry the metadata (brand, ordered
//! category set, general category) from which *all* intent labels are
//! derived — matchers never see it, they read titles only.

use crate::perturb::{perturb_title, NoiseConfig};
use crate::taxonomy::{BrandPool, Taxonomy};
use crate::vocab;
use flexer_types::{Dataset, Record, RecordId};
use rand::seq::SliceRandom;
use rand::Rng;

/// One product (entity).
#[derive(Debug, Clone)]
pub struct Product {
    /// Product id (entity id for the equivalence intent).
    pub id: usize,
    /// Brand string (`book`/`Kindle` for books).
    pub brand: String,
    /// Family id (the set-category equivalence class).
    pub family: usize,
    /// Main category index.
    pub main: usize,
    /// General category index (`usize::MAX` when absent).
    pub general: usize,
    /// Ordered category set of the product.
    pub category_set: Vec<String>,
    /// Clean base title.
    pub base_title: String,
}

/// Distribution of records per product: probabilities of 1, 2, 3 and 4
/// records (normalized internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordCountDist(pub [f64; 4]);

impl RecordCountDist {
    /// Expected number of records per product.
    pub fn expected(&self) -> f64 {
        let total: f64 = self.0.iter().sum();
        self.0.iter().enumerate().map(|(i, &p)| (i + 1) as f64 * p / total).sum()
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let total: f64 = self.0.iter().sum();
        let mut t = rng.gen_range(0.0..total);
        for (i, &p) in self.0.iter().enumerate() {
            if t < p {
                return i + 1;
            }
            t -= p;
        }
        4
    }
}

/// Catalogue construction parameters.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Target number of records `|D|`.
    pub n_records: usize,
    /// Records-per-product distribution.
    pub record_counts: RecordCountDist,
    /// Title noise model.
    pub noise: NoiseConfig,
}

/// A generated catalogue: products, their records and grouping indexes.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The taxonomy the catalogue was drawn from.
    pub taxonomy: Taxonomy,
    /// All products.
    pub products: Vec<Product>,
    /// Record ids of each product.
    pub records_of: Vec<Vec<RecordId>>,
    /// Product id of each record.
    pub product_of: Vec<usize>,
    /// The record dataset (titles + labelling metadata attributes).
    pub dataset: Dataset,
    by_family: Vec<Vec<usize>>,
    by_main: Vec<Vec<usize>>,
    by_general: Vec<Vec<usize>>,
}

impl Catalog {
    /// Generates a catalogue over a taxonomy. Products are laid out
    /// round-robin over (family × brand) cells so that every cell of the
    /// taxonomy is populated evenly — the guarantee the typed pair sampler
    /// relies on.
    pub fn generate(taxonomy: Taxonomy, config: &CatalogConfig, rng: &mut impl Rng) -> Self {
        let expected = config.record_counts.expected();
        let n_products = ((config.n_records as f64 / expected).round() as usize).max(1);

        let mut products = Vec::with_capacity(n_products);
        let n_families = taxonomy.families.len().max(1);
        for id in 0..n_products {
            let family = &taxonomy.families[id % n_families];
            let brands = family.brands.brands();
            let round = id / n_families;
            let brand_idx = round % brands.len();
            let brand = brands[brand_idx].to_string();
            let variant = rng.gen_bool(0.5);
            let base_title =
                synth_title(family.brands, &brand, brand_idx, family.id, &family.noun, id, rng);
            products.push(Product {
                id,
                brand,
                family: family.id,
                main: family.main,
                general: taxonomy.general_of[family.main],
                category_set: family.category_set(variant),
                base_title,
            });
        }

        // Records.
        let mut dataset = Dataset::new();
        let mut records_of = vec![Vec::new(); n_products];
        let mut product_of = Vec::new();
        for product in &products {
            let count = config.record_counts.sample(rng);
            for r in 0..count {
                let title = if r == 0 && !rng.gen_bool(config.noise.perturb_base) {
                    product.base_title.clone()
                } else {
                    let suffix = vocab::COLORS[rng.gen_range(0..vocab::COLORS.len())];
                    perturb_title(&product.base_title, suffix, config.noise, rng)
                };
                let record = Record::with_title(0, title)
                    .with_attr("brand", product.brand.clone())
                    .with_attr("category_set", product.category_set.join(" > "))
                    .with_attr("main_category", product.category_set[0].clone());
                let rid = dataset.push(record);
                records_of[product.id].push(rid);
                product_of.push(product.id);
            }
        }

        // Grouping indexes.
        let mut by_family = vec![Vec::new(); taxonomy.families.len()];
        let mut by_main = vec![Vec::new(); taxonomy.mains.len()];
        let n_generals = taxonomy.generals.len();
        let mut by_general = vec![Vec::new(); n_generals];
        for p in &products {
            by_family[p.family].push(p.id);
            by_main[p.main].push(p.id);
            if p.general != usize::MAX {
                by_general[p.general].push(p.id);
            }
        }

        Self { taxonomy, products, records_of, product_of, dataset, by_family, by_main, by_general }
    }

    /// Number of products.
    pub fn n_products(&self) -> usize {
        self.products.len()
    }

    /// Number of records.
    pub fn n_records(&self) -> usize {
        self.dataset.len()
    }

    /// Products of a family.
    pub fn products_in_family(&self, family: usize) -> &[usize] {
        &self.by_family[family]
    }

    /// Products of a main category.
    pub fn products_in_main(&self, main: usize) -> &[usize] {
        &self.by_main[main]
    }

    /// Products of a general category.
    pub fn products_in_general(&self, general: usize) -> &[usize] {
        &self.by_general[general]
    }

    /// A uniformly random record of a product.
    pub fn random_record_of(&self, product: usize, rng: &mut impl Rng) -> RecordId {
        *self.records_of[product].choose(rng).expect("every product has at least one record")
    }

    /// All within-product record pairs — the exhaustive duplicate-pair pool.
    pub fn all_duplicate_pairs(&self) -> Vec<(RecordId, RecordId)> {
        let mut out = Vec::new();
        for records in &self.records_of {
            for i in 0..records.len() {
                for j in i + 1..records.len() {
                    out.push((records[i], records[j]));
                }
            }
        }
        out
    }
}

/// Synthesizes a clean base title for a product.
///
/// Products of the same (brand, family) cell share their product *line*, so
/// distinguishing two of them (the hard negatives of the equivalence
/// intent) comes down to the model code and minor qualifiers — the shape of
/// real near-duplicates ("Air Max 2016" vs "Air Max 2017").
fn synth_title(
    pool: BrandPool,
    brand: &str,
    brand_idx: usize,
    family: usize,
    noun: &str,
    serial: usize,
    rng: &mut impl Rng,
) -> String {
    match pool {
        BrandPool::Books => {
            let opener = vocab::BOOK_OPENERS[serial % vocab::BOOK_OPENERS.len()];
            let closer = vocab::BOOK_CLOSERS
                [(serial / vocab::BOOK_OPENERS.len()) % vocab::BOOK_CLOSERS.len()];
            let vol = serial / (vocab::BOOK_OPENERS.len() * vocab::BOOK_CLOSERS.len());
            let mut title = if vol > 0 {
                format!("{opener} {closer}, Vol. {}", vol + 1)
            } else {
                format!("{opener} {closer}")
            };
            if brand == "Kindle" {
                title.push_str(" (Kindle Edition)");
            }
            title
        }
        _ => {
            let audience = vocab::AUDIENCES[rng.gen_range(0..vocab::AUDIENCES.len())];
            // Line fixed per (brand, family) cell — cell-mates differ only
            // in model code (and sampled audience/spec).
            let line_idx = (brand_idx * 13 + family * 7) % vocab::LINES.len();
            let line = vocab::LINES[line_idx];
            // Electronics carry unique letter-digit codes (tg-6660tr style);
            // sports/home lines are numbered from a small shared pool, so
            // the number alone cannot decide equivalence.
            let (model, spec) = if matches!(pool, BrandPool::Electronics) {
                (
                    vocab::model_code(brand_idx, line_idx, serial),
                    format!(" {}", vocab::SPECS[serial % vocab::SPECS.len()]),
                )
            } else {
                let numbers = vocab::MODEL_NUMBERS;
                (numbers[(serial * 31 + 7) % numbers.len()].to_string(), String::new())
            };
            format!("{brand} {audience} {line} {model} {noun}{spec}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{amazonmi_spec, TaxonomyConfig};
    use flexer_types::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_catalog(seed: u64) -> Catalog {
        let taxonomy = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Tiny));
        let config = CatalogConfig {
            n_records: 300,
            record_counts: RecordCountDist([0.35, 0.35, 0.2, 0.1]),
            noise: NoiseConfig::default(),
        };
        Catalog::generate(taxonomy, &config, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn record_count_near_target() {
        let c = small_catalog(1);
        let n = c.n_records();
        assert!((200..=420).contains(&n), "records = {n}");
        assert_eq!(c.product_of.len(), n);
    }

    #[test]
    fn every_family_cell_is_populated() {
        let c = small_catalog(2);
        for f in 0..c.taxonomy.families.len() {
            assert!(
                c.products_in_family(f).len() >= 2,
                "family {f} has {} products",
                c.products_in_family(f).len()
            );
        }
    }

    #[test]
    fn product_metadata_is_consistent() {
        let c = small_catalog(3);
        for p in &c.products {
            let fam = &c.taxonomy.families[p.family];
            assert_eq!(p.main, fam.main);
            assert_eq!(p.category_set[0], c.taxonomy.mains[p.main]);
            assert!(fam.brands.brands().contains(&p.brand.as_str()));
        }
    }

    #[test]
    fn records_map_back_to_products() {
        let c = small_catalog(4);
        for (pid, records) in c.records_of.iter().enumerate() {
            for &rid in records {
                assert_eq!(c.product_of[rid], pid);
            }
        }
    }

    #[test]
    fn titles_carry_brand_for_non_books() {
        let c = small_catalog(5);
        let books_main = c.taxonomy.mains.iter().position(|m| m == "Books");
        for p in &c.products {
            if Some(p.main) != books_main {
                assert!(
                    p.base_title.starts_with(&p.brand),
                    "title {:?} lacks brand {:?}",
                    p.base_title,
                    p.brand
                );
            }
        }
    }

    #[test]
    fn kindle_books_are_marked() {
        let c = small_catalog(6);
        let mut saw_kindle = false;
        for p in &c.products {
            if p.brand == "Kindle" {
                saw_kindle = true;
                assert!(p.base_title.contains("Kindle Edition"));
            }
        }
        assert!(saw_kindle, "expected at least one Kindle product");
    }

    #[test]
    fn duplicate_pairs_are_within_product() {
        let c = small_catalog(7);
        let dups = c.all_duplicate_pairs();
        assert!(!dups.is_empty());
        for (a, b) in dups {
            assert_eq!(c.product_of[a], c.product_of[b]);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_catalog(42);
        let b = small_catalog(42);
        assert_eq!(a.n_records(), b.n_records());
        assert_eq!(a.dataset[0].title(), b.dataset[0].title());
        let c = small_catalog(43);
        // Same structure but different record noise (counts may coincide).
        let differs = (0..a.n_records().min(c.n_records()))
            .any(|i| a.dataset[i].title() != c.dataset[i].title());
        assert!(differs);
    }

    #[test]
    fn expected_record_count() {
        let d = RecordCountDist([0.5, 0.5, 0.0, 0.0]);
        assert!((d.expected() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn record_metadata_attributes_present() {
        let c = small_catalog(8);
        let r = &c.dataset[0];
        assert!(r.attr("brand").is_some());
        assert!(r.attr("category_set").is_some());
        assert!(r.attr("main_category").is_some());
    }
}
