//! Category taxonomies with guaranteed intent structure.
//!
//! The AmazonMI intents rest on the *ordered category set* of a product
//! (§5.1): the first element is the main category and "similar category
//! set" means Jaccard ≥ 0.4 between sets. To make those predicates
//! well-behaved (transitive, hence representable by entity mappings as
//! Definition 2 requires), the taxonomy is constructed so that
//!
//! * category sets of the **same family** always have Jaccard ≥ 0.8, and
//! * category sets of **different families** always have Jaccard ≤ 1/3,
//!
//! which makes `Jaccard ≥ 0.4` *exactly* the same-family equivalence. The
//! guarantee comes from globally unique level tokens: a path is
//! `[main, mid, sub, leaf]` with compound mid/sub/leaf names, plus an
//! optional family-unique fifth "flavor" token on variant sets.

use flexer_types::Scale;

/// Which brand vocabulary a main category draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrandPool {
    /// Sports / apparel brands.
    Sport,
    /// Electronics brands.
    Electronics,
    /// Home & kitchen brands.
    Home,
    /// Books have no brand; the paper assigns `book` / `Kindle`.
    Books,
}

impl BrandPool {
    /// The brand strings of this pool.
    pub fn brands(self) -> &'static [&'static str] {
        match self {
            BrandPool::Sport => crate::vocab::SPORT_BRANDS,
            BrandPool::Electronics => crate::vocab::ELECTRONICS_BRANDS,
            BrandPool::Home => crate::vocab::HOME_BRANDS,
            BrandPool::Books => &["book", "Kindle"],
        }
    }
}

/// Static description of one mid-level category.
#[derive(Debug, Clone)]
pub struct MidSpec {
    /// Mid category word (unique within its main).
    pub name: &'static str,
    /// Noun base appended to titles, e.g. `Shoe`.
    pub noun_base: &'static str,
    /// Sub category words (each becomes one family).
    pub subs: Vec<&'static str>,
}

/// Static description of one main category.
#[derive(Debug, Clone)]
pub struct MainSpec {
    /// Main category display name (the first element of category sets).
    pub name: &'static str,
    /// Index into the general-category list, if the dataset has one.
    pub general: Option<usize>,
    /// Brand vocabulary for products in this main category.
    pub brands: BrandPool,
    /// Mid categories.
    pub mids: Vec<MidSpec>,
}

/// Static description of a dataset taxonomy.
#[derive(Debug, Clone)]
pub struct TaxonomySpec {
    /// General categories (empty for AmazonMI).
    pub generals: Vec<&'static str>,
    /// Main categories.
    pub mains: Vec<MainSpec>,
}

/// How much of the spec to keep at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaxonomyConfig {
    /// Max mid categories kept per main.
    pub mids_per_main: usize,
    /// Max families (subs) kept per mid.
    pub families_per_mid: usize,
    /// Max brands kept per pool.
    pub brands_per_pool: usize,
}

impl TaxonomyConfig {
    /// Preset per scale: smaller scales keep fewer cells so every
    /// (brand, family) cell still holds several products.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self { mids_per_main: 3, families_per_mid: 3, brands_per_pool: 12 },
            Scale::Small => Self { mids_per_main: 3, families_per_mid: 2, brands_per_pool: 8 },
            Scale::Tiny => Self { mids_per_main: 2, families_per_mid: 2, brands_per_pool: 4 },
        }
    }
}

/// One family — the unit of the "similar category set" intent.
#[derive(Debug, Clone)]
pub struct Family {
    /// Global family id.
    pub id: usize,
    /// Index of the owning main category.
    pub main: usize,
    /// Base category path `[main, mid, sub, leaf]`.
    pub path: Vec<String>,
    /// Family-unique flavor token for variant category sets.
    pub flavor: String,
    /// Noun phrase for product titles, e.g. `Basketball Shoe`.
    pub noun: String,
    /// Brand pool of the owning main.
    pub brands: BrandPool,
}

impl Family {
    /// The ordered category set of a product in this family; `variant`
    /// products carry the flavor token as a fifth element.
    pub fn category_set(&self, variant: bool) -> Vec<String> {
        let mut set = self.path.clone();
        if variant {
            set.push(self.flavor.clone());
        }
        set
    }
}

/// A materialized taxonomy.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    /// General category names (possibly empty).
    pub generals: Vec<String>,
    /// Main category names.
    pub mains: Vec<String>,
    /// `general_of[m]` is the general category of main `m` (usize::MAX when
    /// the dataset has no generals).
    pub general_of: Vec<usize>,
    /// All families.
    pub families: Vec<Family>,
}

impl Taxonomy {
    /// Materializes a spec under a trim configuration.
    pub fn from_spec(spec: &TaxonomySpec, config: TaxonomyConfig) -> Self {
        let generals: Vec<String> = spec.generals.iter().map(|s| s.to_string()).collect();
        let mut mains = Vec::new();
        let mut general_of = Vec::new();
        let mut families = Vec::new();
        for (m, main) in spec.mains.iter().enumerate() {
            mains.push(main.name.to_string());
            general_of.push(main.general.unwrap_or(usize::MAX));
            for mid in main.mids.iter().take(config.mids_per_main) {
                for sub in mid.subs.iter().take(config.families_per_mid) {
                    let id = families.len();
                    let mid_token = format!("{} {}", main_short(main.name), mid.name);
                    let sub_token = format!("{} {}", mid.name, sub);
                    let leaf_token = format!("{} {}", sub, mid.noun_base);
                    families.push(Family {
                        id,
                        main: m,
                        path: vec![main.name.to_string(), mid_token, sub_token, leaf_token],
                        flavor: format!("{} {} Edition", sub, mid.name),
                        noun: format!("{} {}", sub, mid.noun_base),
                        brands: main.brands,
                    });
                }
            }
        }
        Self { generals, mains, general_of, families }
    }
}

fn main_short(name: &str) -> &str {
    name.split([' ', '&']).next().unwrap_or(name)
}

/// Jaccard similarity between two string sets.
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.iter().filter(|x| b.contains(x)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// The AmazonMI taxonomy spec: four product worlds including books
/// (which receive the `book`/`Kindle` pseudo-brand, §5.1).
pub fn amazonmi_spec() -> TaxonomySpec {
    TaxonomySpec {
        generals: vec![],
        mains: vec![
            MainSpec {
                name: "Sports & Outdoors",
                general: None,
                brands: BrandPool::Sport,
                mids: vec![
                    MidSpec {
                        name: "Shoes",
                        noun_base: "Shoe",
                        subs: vec!["Basketball", "Running", "Training"],
                    },
                    MidSpec {
                        name: "Equipment",
                        noun_base: "Kit",
                        subs: vec!["Fitness", "Camping", "Cycling"],
                    },
                    MidSpec {
                        name: "Apparel",
                        noun_base: "Jacket",
                        subs: vec!["Trail", "Court", "Track"],
                    },
                ],
            },
            MainSpec {
                name: "Electronics",
                general: None,
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec {
                        name: "Cameras",
                        noun_base: "Camera",
                        subs: vec!["DSLR", "Mirrorless", "Compact"],
                    },
                    MidSpec {
                        name: "Computers",
                        noun_base: "Laptop",
                        subs: vec!["Gaming", "Business", "Convertible"],
                    },
                    MidSpec {
                        name: "Audio",
                        noun_base: "Headphones",
                        subs: vec!["Studio", "Sport", "Travel"],
                    },
                ],
            },
            MainSpec {
                name: "Books",
                general: None,
                brands: BrandPool::Books,
                mids: vec![
                    MidSpec {
                        name: "Fiction",
                        noun_base: "Novel",
                        subs: vec!["Drama", "Adventure", "Romance"],
                    },
                    MidSpec {
                        name: "Mystery",
                        noun_base: "Story",
                        subs: vec!["Crime", "Thriller", "Noir"],
                    },
                    MidSpec {
                        name: "History",
                        noun_base: "Chronicle",
                        subs: vec!["Ancient", "Modern", "Maritime"],
                    },
                ],
            },
            MainSpec {
                name: "Home & Kitchen",
                general: None,
                brands: BrandPool::Home,
                mids: vec![
                    MidSpec {
                        name: "Appliances",
                        noun_base: "Blender",
                        subs: vec!["Countertop", "Immersion", "Personal"],
                    },
                    MidSpec {
                        name: "Cookware",
                        noun_base: "Skillet",
                        subs: vec!["CastIron", "Nonstick", "Copper"],
                    },
                    MidSpec {
                        name: "Storage",
                        noun_base: "Container",
                        subs: vec!["Pantry", "Freezer", "Stacking"],
                    },
                ],
            },
        ],
    }
}

/// The Walmart-Amazon taxonomy spec: the manually built hierarchy of §5.1
/// with general categories electronics / personal equipment / house / cars.
pub fn walmart_amazon_spec() -> TaxonomySpec {
    TaxonomySpec {
        generals: vec!["electronics", "personal equipment", "house", "cars"],
        mains: vec![
            MainSpec {
                name: "photography",
                general: Some(0),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec {
                        name: "Tripods",
                        noun_base: "Tripod",
                        subs: vec!["Travel", "Studio"],
                    },
                    MidSpec { name: "Lenses", noun_base: "Lens", subs: vec!["Zoom", "Macro"] },
                ],
            },
            MainSpec {
                name: "computers",
                general: Some(0),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec {
                        name: "Laptops",
                        noun_base: "Laptop",
                        subs: vec!["Ultrabook", "Workstation"],
                    },
                    MidSpec {
                        name: "Tablets",
                        noun_base: "Tablet",
                        subs: vec!["Drawing", "Reading"],
                    },
                ],
            },
            MainSpec {
                name: "footwear",
                general: Some(1),
                brands: BrandPool::Sport,
                mids: vec![
                    MidSpec {
                        name: "Sneakers",
                        noun_base: "Sneaker",
                        subs: vec!["Court", "Street"],
                    },
                    MidSpec { name: "Boots", noun_base: "Boot", subs: vec!["Hiking", "Work"] },
                ],
            },
            MainSpec {
                name: "watches",
                general: Some(1),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec { name: "Digital", noun_base: "Watch", subs: vec!["Chrono", "Diver"] },
                    MidSpec {
                        name: "Analog",
                        noun_base: "Timepiece",
                        subs: vec!["Dress", "Field"],
                    },
                ],
            },
            MainSpec {
                name: "kitchen",
                general: Some(2),
                brands: BrandPool::Home,
                mids: vec![
                    MidSpec {
                        name: "SmallAppliance",
                        noun_base: "Mixer",
                        subs: vec!["Stand", "Hand"],
                    },
                    MidSpec { name: "Bakeware", noun_base: "Pan", subs: vec!["Sheet", "Loaf"] },
                ],
            },
            MainSpec {
                name: "auto",
                general: Some(3),
                brands: BrandPool::Home,
                mids: vec![
                    MidSpec {
                        name: "Interior",
                        noun_base: "Organizer",
                        subs: vec!["Trunk", "Seat"],
                    },
                    MidSpec { name: "Care", noun_base: "Polish", subs: vec!["Wax", "Detail"] },
                ],
            },
        ],
    }
}

/// The WDC taxonomy spec: the four sub-corpora (computers, cameras,
/// watches, shoes) merged into electronics / dressing general categories.
pub fn wdc_spec() -> TaxonomySpec {
    TaxonomySpec {
        generals: vec!["electronics", "dressing"],
        mains: vec![
            MainSpec {
                name: "computers",
                general: Some(0),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec { name: "Desktops", noun_base: "Desktop", subs: vec!["Tower", "Mini"] },
                    MidSpec {
                        name: "Notebooks",
                        noun_base: "Notebook",
                        subs: vec!["Slim", "Rugged"],
                    },
                ],
            },
            MainSpec {
                name: "cameras",
                general: Some(0),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec {
                        name: "SLR",
                        noun_base: "Camera Body",
                        subs: vec!["FullFrame", "Crop"],
                    },
                    MidSpec {
                        name: "Action",
                        noun_base: "Action Cam",
                        subs: vec!["Helmet", "Dash"],
                    },
                ],
            },
            MainSpec {
                name: "watches",
                general: Some(1),
                brands: BrandPool::Electronics,
                mids: vec![
                    MidSpec { name: "Smart", noun_base: "Smartwatch", subs: vec!["GPS", "Hybrid"] },
                    MidSpec {
                        name: "Classic",
                        noun_base: "Wristwatch",
                        subs: vec!["Leather", "Steel"],
                    },
                ],
            },
            MainSpec {
                name: "shoes",
                general: Some(1),
                brands: BrandPool::Sport,
                mids: vec![
                    MidSpec {
                        name: "Performance",
                        noun_base: "Running Shoe",
                        subs: vec!["Road", "Trail2"],
                    },
                    MidSpec { name: "Casual", noun_base: "Loafer", subs: vec!["Canvas", "Suede"] },
                ],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<TaxonomySpec> {
        vec![amazonmi_spec(), walmart_amazon_spec(), wdc_spec()]
    }

    #[test]
    fn within_family_jaccard_at_least_threshold() {
        for spec in all_specs() {
            let t = Taxonomy::from_spec(&spec, TaxonomyConfig::at_scale(Scale::Paper));
            for f in &t.families {
                let base = f.category_set(false);
                let variant = f.category_set(true);
                assert!(jaccard(&base, &variant) >= 0.4, "family {} variant too dissimilar", f.id);
            }
        }
    }

    #[test]
    fn cross_family_jaccard_below_threshold() {
        for spec in all_specs() {
            let t = Taxonomy::from_spec(&spec, TaxonomyConfig::at_scale(Scale::Paper));
            for a in &t.families {
                for b in &t.families {
                    if a.id == b.id {
                        continue;
                    }
                    for va in [false, true] {
                        for vb in [false, true] {
                            let j = jaccard(&a.category_set(va), &b.category_set(vb));
                            assert!(
                                j < 0.4,
                                "families {} and {} too similar (j = {j})",
                                a.id,
                                b.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn family_determines_main() {
        let t = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Paper));
        for f in &t.families {
            assert_eq!(f.path[0], t.mains[f.main]);
        }
    }

    #[test]
    fn trim_reduces_family_count() {
        let spec = amazonmi_spec();
        let paper = Taxonomy::from_spec(&spec, TaxonomyConfig::at_scale(Scale::Paper));
        let tiny = Taxonomy::from_spec(&spec, TaxonomyConfig::at_scale(Scale::Tiny));
        assert!(tiny.families.len() < paper.families.len());
        assert!(!tiny.families.is_empty());
    }

    #[test]
    fn generals_cover_mains_for_wa_and_wdc() {
        for spec in [walmart_amazon_spec(), wdc_spec()] {
            let t = Taxonomy::from_spec(&spec, TaxonomyConfig::at_scale(Scale::Paper));
            for (m, &g) in t.general_of.iter().enumerate() {
                assert!(g < t.generals.len(), "main {m} lacks a general category");
            }
        }
    }

    #[test]
    fn amazonmi_has_no_generals() {
        let t = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Paper));
        assert!(t.generals.is_empty());
        assert!(t.general_of.iter().all(|&g| g == usize::MAX));
    }

    #[test]
    fn jaccard_basics() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "z".to_string()];
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn books_main_uses_book_pseudo_brands() {
        let t = Taxonomy::from_spec(&amazonmi_spec(), TaxonomyConfig::at_scale(Scale::Paper));
        let books_main = t.mains.iter().position(|m| m == "Books").unwrap();
        let fam = t.families.iter().find(|f| f.main == books_main).unwrap();
        assert_eq!(fam.brands.brands(), &["book", "Kindle"]);
    }
}
