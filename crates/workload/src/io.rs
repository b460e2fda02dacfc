//! JSON (de)serialization of datasets.
//!
//! The on-disk format stores queries as property-id lists and the weight
//! function symbolically (uniform / seeded) or as explicit entries, so a
//! 100 000-query synthetic dataset serializes in kilobytes rather than by
//! materializing ~2 million classifier weights.

use crate::Dataset;
use mc3_core::json::{self, Json};
use mc3_core::{FxHashMap, Instance, PropSet, Weight, Weights};
use std::io::{Read, Write};

/// Serializable weight-function description.
///
/// On disk this is a tagged object: `{"kind": "uniform", "cost": 1}`,
/// `{"kind": "seeded", "seed": 7, "lo": 1, "hi": 50}`, or
/// `{"kind": "explicit", "entries": [[[0, 1], 3], ...], "default": null}`.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSpec {
    /// Every classifier costs `cost`.
    Uniform {
        /// The common cost.
        cost: u64,
    },
    /// Deterministic pseudo-random costs in `[lo, hi]`.
    Seeded {
        /// Hash seed.
        seed: u64,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Explicit `(classifier, cost)` entries; `cost = null` means
    /// infeasible (infinite). Absent classifiers get `default`
    /// (`null` = infinite).
    Explicit {
        /// The entries.
        entries: Vec<(Vec<u32>, Option<u64>)>,
        /// Default for absent classifiers.
        default: Option<u64>,
    },
}

/// The serializable dataset file.
#[derive(Debug, Clone)]
pub struct DatasetFile {
    /// Dataset name.
    pub name: String,
    /// Queries as sorted property-id lists.
    pub queries: Vec<Vec<u32>>,
    /// The weight function.
    pub weights: WeightSpec,
}

fn weight_to_opt(w: Weight) -> Option<u64> {
    w.finite()
}

impl WeightSpec {
    fn to_json(&self) -> Json {
        match self {
            WeightSpec::Uniform { cost } => Json::object([
                ("kind", Json::Str("uniform".into())),
                ("cost", Json::Int(*cost as i128)),
            ]),
            WeightSpec::Seeded { seed, lo, hi } => Json::object([
                ("kind", Json::Str("seeded".into())),
                ("seed", Json::Int(*seed as i128)),
                ("lo", Json::Int(*lo as i128)),
                ("hi", Json::Int(*hi as i128)),
            ]),
            WeightSpec::Explicit { entries, default } => Json::object([
                ("kind", Json::Str("explicit".into())),
                (
                    "entries",
                    Json::array(entries.iter().map(|(ids, cost)| {
                        Json::array([
                            Json::array(ids.iter().map(|&p| Json::Int(p as i128))),
                            Json::opt_u64(*cost),
                        ])
                    })),
                ),
                ("default", Json::opt_u64(*default)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<WeightSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("weights: missing string field 'kind'")?;
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("weights: missing u64 field '{name}'"))
        };
        let opt_u64_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None => Err(format!("weights: missing field '{name}'")),
                Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("weights: field '{name}' must be u64 or null")),
            }
        };
        match kind {
            "uniform" => Ok(WeightSpec::Uniform {
                cost: u64_field("cost")?,
            }),
            "seeded" => Ok(WeightSpec::Seeded {
                seed: u64_field("seed")?,
                lo: u64_field("lo")?,
                hi: u64_field("hi")?,
            }),
            "explicit" => {
                let raw = v
                    .get("entries")
                    .and_then(Json::as_array)
                    .ok_or("weights: missing array field 'entries'")?;
                let mut entries = Vec::with_capacity(raw.len());
                for e in raw {
                    let pair = e
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or("weights: each entry must be a [classifier, cost] pair")?;
                    let ids = pair
                        .first()
                        .and_then(Json::as_array)
                        .ok_or("weights: entry classifier must be an id array")?
                        .iter()
                        .map(|p| p.as_u32().ok_or("weights: property ids must be u32"))
                        .collect::<Result<Vec<u32>, _>>()?;
                    let cost = match pair.get(1) {
                        Some(Json::Null) => None,
                        Some(x) => Some(
                            x.as_u64()
                                .ok_or("weights: entry cost must be u64 or null")?,
                        ),
                        None => None,
                    };
                    entries.push((ids, cost));
                }
                Ok(WeightSpec::Explicit {
                    entries,
                    default: opt_u64_field("default")?,
                })
            }
            other => Err(format!("weights: unknown kind '{other}'")),
        }
    }
}

fn opt_to_weight(o: Option<u64>) -> Weight {
    match o {
        Some(v) => Weight::new(v),
        None => Weight::INFINITE,
    }
}

impl DatasetFile {
    /// Captures a dataset into its serializable form.
    pub fn from_dataset(ds: &Dataset) -> DatasetFile {
        let queries = ds
            .instance
            .queries()
            .iter()
            .map(|q| q.iter().map(|p| p.0).collect())
            .collect();
        let weights = match ds.instance.weights() {
            Weights::Uniform(w) => WeightSpec::Uniform {
                // audit:allow(no-unwrap-in-lib) Weights::uniform rejects infinite costs at construction
                cost: w.finite().expect("uniform weights are finite"),
            },
            Weights::Seeded { seed, lo, hi } => WeightSpec::Seeded {
                seed: *seed,
                lo: *lo,
                hi: *hi,
            },
            // audit:allow(no-unwrap-in-lib) documented API contract: custom fns are not serializable
            Weights::Custom(_) => panic!(
                "custom cost functions cannot be serialized; materialize them \
                 into an explicit map first"
            ),
            Weights::Map { map, default } => {
                let mut entries: Vec<(Vec<u32>, Option<u64>)> = map
                    .iter()
                    .map(|(c, &w)| (c.iter().map(|p| p.0).collect(), weight_to_opt(w)))
                    .collect();
                entries.sort();
                WeightSpec::Explicit {
                    entries,
                    default: weight_to_opt(*default),
                }
            }
        };
        DatasetFile {
            name: ds.name.clone(),
            queries,
            weights,
        }
    }

    /// Renders the file as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::Str(self.name.clone())),
            (
                "queries",
                Json::array(
                    self.queries
                        .iter()
                        .map(|q| Json::array(q.iter().map(|&p| Json::Int(p as i128)))),
                ),
            ),
            ("weights", self.weights.to_json()),
        ])
    }

    /// Parses the file from a JSON document.
    pub fn from_json(v: &Json) -> Result<DatasetFile, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("dataset: missing string field 'name'")?
            .to_owned();
        let raw_queries = v
            .get("queries")
            .and_then(Json::as_array)
            .ok_or("dataset: missing array field 'queries'")?;
        let mut queries = Vec::with_capacity(raw_queries.len());
        for q in raw_queries {
            let ids = q
                .as_array()
                .ok_or("dataset: each query must be an id array")?
                .iter()
                .map(|p| p.as_u32().ok_or("dataset: property ids must be u32"))
                .collect::<Result<Vec<u32>, _>>()?;
            queries.push(ids);
        }
        let weights =
            WeightSpec::from_json(v.get("weights").ok_or("dataset: missing field 'weights'")?)?;
        Ok(DatasetFile {
            name,
            queries,
            weights,
        })
    }

    /// Reconstructs the dataset.
    pub fn into_dataset(self) -> mc3_core::Result<Dataset> {
        let weights = match self.weights {
            WeightSpec::Uniform { cost } => Weights::uniform(cost),
            WeightSpec::Seeded { seed, lo, hi } => Weights::seeded(seed, lo, hi),
            WeightSpec::Explicit { entries, default } => {
                let mut map: FxHashMap<PropSet, Weight> = FxHashMap::default();
                for (ids, cost) in entries {
                    map.insert(PropSet::from_ids(ids), opt_to_weight(cost));
                }
                Weights::Map {
                    map,
                    default: opt_to_weight(default),
                }
            }
        };
        let instance = Instance::new(self.queries, weights)?;
        Ok(Dataset::new(self.name, instance))
    }
}

/// Writes a dataset as pretty JSON.
pub fn write_dataset_json(ds: &Dataset, mut w: impl Write) -> std::io::Result<()> {
    let json = DatasetFile::from_dataset(ds).to_json().to_string_pretty();
    w.write_all(json.as_bytes())
}

/// Reads a dataset from JSON: [`parse_dataset_json`] over the reader's
/// text, with its errors as [`std::io::ErrorKind::InvalidData`].
pub fn read_dataset_json(mut r: impl Read) -> std::io::Result<Dataset> {
    let mut buf = String::new();
    r.read_to_string(&mut buf)?;
    parse_dataset_json(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Decodes a dataset from JSON text: parse, check the document's shape,
/// build the instance. The error is the first failing step's message.
pub fn parse_dataset_json(text: &str) -> Result<Dataset, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let ds = DatasetFile::from_json(&doc)?
        .into_dataset()
        .map_err(|e| e.to_string())?;
    mc3_obs::debug(
        "workload",
        "dataset parsed",
        &[
            ("name", ds.name.as_str().into()),
            ("queries", ds.instance.num_queries().into()),
            ("properties", ds.instance.num_properties().into()),
        ],
    );
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BestBuyConfig, SyntheticConfig};
    use mc3_core::WeightsBuilder;

    #[test]
    fn uniform_roundtrip() {
        let ds = BestBuyConfig::with_queries(50).generate();
        let mut buf = Vec::new();
        write_dataset_json(&ds, &mut buf).unwrap();
        let back = read_dataset_json(buf.as_slice()).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.instance.queries(), ds.instance.queries());
        let q = &ds.instance.queries()[0];
        assert_eq!(back.instance.weight(q), ds.instance.weight(q));
    }

    #[test]
    fn seeded_roundtrip_preserves_costs() {
        let ds = SyntheticConfig::with_queries(100).generate();
        let mut buf = Vec::new();
        write_dataset_json(&ds, &mut buf).unwrap();
        let back = read_dataset_json(buf.as_slice()).unwrap();
        for q in ds.instance.queries().iter().take(20) {
            assert_eq!(back.instance.weight(q), ds.instance.weight(q));
        }
    }

    #[test]
    fn explicit_roundtrip_with_infinite() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 3u64)
            .infinite([1u32])
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let ds = Dataset::new("tiny", instance);
        let mut buf = Vec::new();
        write_dataset_json(&ds, &mut buf).unwrap();
        let back = read_dataset_json(buf.as_slice()).unwrap();
        let x = PropSet::from_ids([0u32]);
        let y = PropSet::from_ids([1u32]);
        assert_eq!(back.instance.weight(&x), Weight::new(3));
        assert!(back.instance.weight(&y).is_infinite());
        assert!(back
            .instance
            .weight(&PropSet::from_ids([0u32, 1]))
            .is_infinite());
    }

    #[test]
    fn invalid_json_is_rejected() {
        assert!(read_dataset_json("not json".as_bytes()).is_err());
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let json = r#"{"name":"bad","queries":[[]],"weights":{"kind":"uniform","cost":1}}"#;
        assert!(read_dataset_json(json.as_bytes()).is_err());
    }
}
