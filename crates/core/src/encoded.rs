//! Typed access to the encoded tables the preprocessor materialises.
//!
//! The core operator reads *only* these structures — it never sees real
//! attribute names or values, which is the architecture's interoperability
//! contract (§3): any mining algorithm can be plugged in behind them.

use std::collections::HashMap;

use relational::{Database, ResultSet, Value};

use crate::ast::CardSpec;
use crate::directives::{Directives, StatementClass};
use crate::error::{MineError, Result};
use crate::translator::Translation;

/// One encoded tuple of the general `CodedSource` view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneralTuple {
    pub gid: u32,
    /// Cluster identifier; `None` when the statement has no CLUSTER BY.
    pub cid: Option<u32>,
    /// Body-item identifier; `None` on head-side rows (H true).
    pub bid: Option<u32>,
    /// Head-item identifier; `None` on body-side rows. When H is false
    /// the body identifier doubles as the head identifier.
    pub hid: Option<u32>,
}

/// An elementary (1×1) rule from `InputRules` (mining condition case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemRule {
    pub gid: u32,
    pub cidb: Option<u32>,
    pub cidh: Option<u32>,
    pub bid: u32,
    pub hid: u32,
}

/// Everything the core operator needs, in encoded form.
#[derive(Debug, Clone)]
pub struct EncodedInput {
    pub directives: Directives,
    pub class: StatementClass,
    pub total_groups: u32,
    pub min_groups: u32,
    pub min_support: f64,
    pub min_confidence: f64,
    pub body_card: CardSpec,
    pub head_card: CardSpec,
    pub data: EncodedData,
}

/// Per-group lists of large item identifiers, gids ascending and each
/// list ascending: `SELECT Gid, Bid FROM CodedSource ORDER BY Gid, Bid`.
pub type SimpleGroups = Vec<(u32, Vec<u32>)>;

/// Class-specific payload.
#[derive(Debug, Clone)]
pub enum EncodedData {
    /// Simple rules: per-group lists of large item identifiers.
    Simple { groups: SimpleGroups },
    /// General rules: raw tuples plus optional couples/elementary tables.
    General {
        tuples: Vec<GeneralTuple>,
        cluster_couples: Option<Vec<(u32, u32, u32)>>,
        input_rules: Option<Vec<ElemRule>>,
    },
}

/// An encoded identifier as the core holds it.
pub(crate) fn encoded_id(id: i64) -> Result<u32> {
    u32::try_from(id).map_err(|_| MineError::Internal {
        message: format!("expected small non-negative id, got {id}"),
    })
}

fn get_u32(v: &Value) -> Result<u32> {
    match v {
        Value::Int(i) => encoded_id(*i),
        other => Err(MineError::Internal {
            message: format!("expected small non-negative id, got {other}"),
        }),
    }
}

fn get_opt_u32(v: &Value) -> Result<Option<u32>> {
    if v.is_null() {
        Ok(None)
    } else {
        get_u32(v).map(Some)
    }
}

fn col(rs: &ResultSet, name: &str) -> Result<usize> {
    rs.column_index(name).ok_or_else(|| MineError::Internal {
        message: format!("encoded table misses column '{name}'"),
    })
}

/// The `:totg`/`:mingroups` bindings preprocessing leaves behind.
fn group_bindings(db: &Database) -> Result<(u32, u32)> {
    let total_groups = match db.var("totg") {
        Some(Value::Int(n)) => *n as u32,
        _ => {
            return Err(MineError::Internal {
                message: ":totg unset — run preprocessing first".into(),
            })
        }
    };
    let min_groups = match db.var("mingroups") {
        Some(Value::Int(n)) => *n as u32,
        _ => {
            return Err(MineError::Internal {
                message: ":mingroups unset — run preprocessing first".into(),
            })
        }
    };
    Ok((total_groups, min_groups))
}

fn encoded_input(
    translation: &Translation,
    (total_groups, min_groups): (u32, u32),
    data: EncodedData,
) -> EncodedInput {
    let stmt = &translation.stmt;
    EncodedInput {
        directives: translation.directives,
        class: translation.class,
        total_groups,
        min_groups,
        min_support: stmt.min_support,
        min_confidence: stmt.min_confidence,
        body_card: stmt.body.card,
        head_card: stmt.head.card,
        data,
    }
}

/// The encoded input of a simple-class statement whose groups the fused
/// preprocess pass handed over in memory: what [`read_encoded`] returns
/// for the same run, without reading `CodedSource` back.
pub(crate) fn handed_over(
    db: &Database,
    translation: &Translation,
    groups: SimpleGroups,
) -> Result<EncodedInput> {
    let bindings = group_bindings(db)?;
    Ok(encoded_input(
        translation,
        bindings,
        EncodedData::Simple { groups },
    ))
}

/// Read the encoded input for a translation whose preprocessing has run.
pub fn read_encoded(db: &mut Database, translation: &Translation) -> Result<EncodedInput> {
    let dir = translation.directives;
    let names = &translation.names;
    let bindings = group_bindings(db)?;

    let data = match translation.class {
        StatementClass::Simple => {
            let rs = db.query(&format!(
                "SELECT Gid, Bid FROM {} ORDER BY Gid, Bid",
                names.coded_source()
            ))?;
            let mut groups = SimpleGroups::new();
            for row in rs.rows() {
                let gid = get_u32(&row[0])?;
                let bid = get_u32(&row[1])?;
                match groups.last_mut() {
                    Some((g, items)) if *g == gid => items.push(bid),
                    _ => groups.push((gid, vec![bid])),
                }
            }
            EncodedData::Simple { groups }
        }
        StatementClass::General => {
            let mut cols = vec!["Gid"];
            if dir.c {
                cols.push("Cid");
            }
            cols.push("Bid");
            if dir.h {
                cols.push("Hid");
            }
            let rs = db.query(&format!(
                "SELECT {} FROM {}",
                cols.join(", "),
                names.coded_source()
            ))?;
            let gid_i = col(&rs, "Gid")?;
            let cid_i = if dir.c { Some(col(&rs, "Cid")?) } else { None };
            let bid_i = col(&rs, "Bid")?;
            let hid_i = if dir.h { Some(col(&rs, "Hid")?) } else { None };
            let mut tuples = Vec::with_capacity(rs.len());
            for row in rs.rows() {
                let bid = get_opt_u32(&row[bid_i])?;
                let hid = match hid_i {
                    Some(i) => get_opt_u32(&row[i])?,
                    // Same schema for body and head: the body identifier
                    // doubles as head identifier.
                    None => bid,
                };
                tuples.push(GeneralTuple {
                    gid: get_u32(&row[gid_i])?,
                    cid: match cid_i {
                        Some(i) => Some(get_u32(&row[i])?),
                        None => None,
                    },
                    bid,
                    hid,
                });
            }
            let cluster_couples = if dir.k {
                let rs = db.query(&format!(
                    "SELECT Gid, Cidb, Cidh FROM {}",
                    names.cluster_couples()
                ))?;
                Some(
                    rs.rows()
                        .iter()
                        .map(|r| Ok((get_u32(&r[0])?, get_u32(&r[1])?, get_u32(&r[2])?)))
                        .collect::<Result<Vec<_>>>()?,
                )
            } else {
                None
            };
            let input_rules = if dir.m {
                let mut cols = vec!["Gid"];
                if dir.c {
                    cols.push("Cidb");
                    cols.push("Cidh");
                }
                cols.push("Bid");
                cols.push("Hid");
                let rs = db.query(&format!(
                    "SELECT {} FROM {}",
                    cols.join(", "),
                    names.input_rules()
                ))?;
                let gid_i = col(&rs, "Gid")?;
                let bid_i = col(&rs, "Bid")?;
                let hid_i = col(&rs, "Hid")?;
                let mut rules = Vec::with_capacity(rs.len());
                for row in rs.rows() {
                    rules.push(ElemRule {
                        gid: get_u32(&row[gid_i])?,
                        cidb: if dir.c {
                            get_opt_u32(&row[col(&rs, "Cidb")?])?
                        } else {
                            None
                        },
                        cidh: if dir.c {
                            get_opt_u32(&row[col(&rs, "Cidh")?])?
                        } else {
                            None
                        },
                        bid: get_u32(&row[bid_i])?,
                        hid: get_u32(&row[hid_i])?,
                    });
                }
                Some(rules)
            } else {
                None
            };
            EncodedData::General {
                tuples,
                cluster_couples,
                input_rules,
            }
        }
    };

    Ok(encoded_input(translation, bindings, data))
}

/// Decoding maps read back from `Bset`/`Hset`, used by tests and examples
/// to express expectations in terms of real item values.
#[derive(Debug, Clone, Default)]
pub struct ItemDecoder {
    /// Bid → rendered body item (single-attribute schemas render plainly;
    /// multi-attribute schemas render as `v1|v2`).
    pub bodies: HashMap<u32, String>,
    /// Hid → rendered head item (equal to `bodies` when H is false).
    pub heads: HashMap<u32, String>,
}

impl ItemDecoder {
    /// Read the decoder from the encoded item tables.
    pub fn read(db: &mut Database, translation: &Translation) -> Result<ItemDecoder> {
        let names = &translation.names;
        let stmt = &translation.stmt;
        let bodies = read_item_map(db, &names.bset(), "Bid", &stmt.body.schema)?;
        let heads = if translation.directives.h {
            read_item_map(db, &names.hset(), "Hid", &stmt.head.schema)?
        } else {
            bodies.clone()
        };
        Ok(ItemDecoder { bodies, heads })
    }

    /// Render an encoded body itemset as sorted item names.
    pub fn body_names(&self, bids: &[u32]) -> Vec<String> {
        let mut v: Vec<String> = bids
            .iter()
            .map(|b| {
                self.bodies
                    .get(b)
                    .cloned()
                    .unwrap_or_else(|| format!("#{b}"))
            })
            .collect();
        v.sort();
        v
    }

    /// Render an encoded head itemset as sorted item names.
    pub fn head_names(&self, hids: &[u32]) -> Vec<String> {
        let mut v: Vec<String> = hids
            .iter()
            .map(|h| {
                self.heads
                    .get(h)
                    .cloned()
                    .unwrap_or_else(|| format!("#{h}"))
            })
            .collect();
        v.sort();
        v
    }
}

fn read_item_map(
    db: &mut Database,
    table: &str,
    id_col: &str,
    schema: &[String],
) -> Result<HashMap<u32, String>> {
    let rs = db.query(&format!(
        "SELECT {id_col}, {} FROM {table}",
        schema.join(", ")
    ))?;
    let mut map = HashMap::with_capacity(rs.len());
    for row in rs.rows() {
        let id = get_u32(&row[0])?;
        let rendered = row[1..]
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("|");
        map.insert(id, rendered);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::purchase_db;
    use crate::parser::parse_mine_rule;
    use crate::preprocess::preprocess;
    use crate::translator::translate;

    fn prepared(stmt: &str) -> (relational::Database, crate::translator::Translation) {
        let mut db = purchase_db();
        let parsed = parse_mine_rule(stmt).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        preprocess(&mut db, &translation).unwrap();
        (db, translation)
    }

    #[test]
    fn simple_encoding_reads_groups() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        );
        let input = read_encoded(&mut db, &t).unwrap();
        assert_eq!(input.total_groups, 4);
        match input.data {
            EncodedData::Simple { groups } => {
                // Transaction 2 has 3 large items (everything that appears
                // in ≥1 group is large at support 0.25 → ming=1).
                assert!(groups.iter().any(|(_, items)| items.len() == 3));
            }
            other => panic!("expected simple encoding, got {other:?}"),
        }
    }

    #[test]
    fn decoder_maps_bids_to_item_names() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        );
        let decoder = ItemDecoder::read(&mut db, &t).unwrap();
        let names: Vec<String> = decoder.bodies.values().cloned().collect();
        assert!(names.contains(&"jackets".to_string()));
        // Unknown ids render as placeholders rather than panicking.
        assert_eq!(decoder.body_names(&[9999]), vec!["#9999".to_string()]);
    }

    #[test]
    fn general_encoding_carries_cluster_ids() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer CLUSTER BY date \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        let input = read_encoded(&mut db, &t).unwrap();
        match input.data {
            EncodedData::General { tuples, .. } => {
                assert!(!tuples.is_empty());
                assert!(tuples.iter().all(|tu| tu.cid.is_some()));
                assert!(tuples.iter().all(|tu| tu.bid == tu.hid), "H=0");
            }
            other => panic!("expected general encoding, got {other:?}"),
        }
    }
}
