//! Level instances (members), roll-up links between members, and member
//! attribute values.
//!
//! QB4OLAP represents the *instance* side of a hierarchy with
//! `qb4o:memberOf` (member → level) and `skos:broader` (child member →
//! parent member) links, plus level-attribute triples on the members.
//! The Enrichment module generates these triples; the Exploration and
//! Querying modules read them back through the functions in this module.

use rdf::vocab::{qb4o, skos};
use rdf::{Iri, Term, Triple};
use sparql::Endpoint;

use crate::error::Qb4olapError;

/// Generates the triple declaring `member` as an instance of `level`.
pub fn member_of_triple(member: &Term, level: &Iri) -> Triple {
    Triple::new(member.clone(), qb4o::member_of(), Term::Iri(level.clone()))
}

/// Generates the triple linking a child member to its parent member.
pub fn rollup_triple(child: &Term, parent: &Term) -> Triple {
    Triple::new(child.clone(), skos::broader(), parent.clone())
}

/// Generates an attribute-value triple for a member.
pub fn attribute_triple(member: &Term, attribute: &Iri, value: &Term) -> Triple {
    Triple::new(member.clone(), attribute.clone(), value.clone())
}

/// All members of a level, via `qb4o:memberOf`.
pub fn members_of_level(endpoint: &dyn Endpoint, level: &Iri) -> Result<Vec<Term>, Qb4olapError> {
    let solutions = endpoint.select(&format!(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT DISTINCT ?m WHERE {{ ?m qb4o:memberOf <{level}> }} ORDER BY ?m",
        level = level.as_str()
    ))?;
    Ok(solutions
        .rows()
        .filter_map(|r| solutions.term(r[0]).cloned())
        .collect())
}

/// Number of members of a level.
pub fn member_count(endpoint: &dyn Endpoint, level: &Iri) -> Result<usize, Qb4olapError> {
    let solutions = endpoint.select(&format!(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{ ?m qb4o:memberOf <{level}> }}",
        level = level.as_str()
    ))?;
    Ok(solutions
        .get(0, "n")
        .and_then(Term::as_literal)
        .and_then(|l| l.as_integer())
        .unwrap_or(0) as usize)
}

/// The `(child member, parent member)` roll-up pairs between two levels.
pub fn rollup_pairs(
    endpoint: &dyn Endpoint,
    child_level: &Iri,
    parent_level: &Iri,
) -> Result<Vec<(Term, Term)>, Qb4olapError> {
    let solutions = endpoint.select(&format!(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
         SELECT ?child ?parent WHERE {{
           ?child qb4o:memberOf <{child}> ; skos:broader ?parent .
           ?parent qb4o:memberOf <{parent}> .
         }} ORDER BY ?child ?parent",
        child = child_level.as_str(),
        parent = parent_level.as_str()
    ))?;
    Ok(solutions
        .rows()
        .filter_map(|r| match (solutions.term(r[0]), solutions.term(r[1])) {
            (Some(c), Some(p)) => Some((c.clone(), p.clone())),
            _ => None,
        })
        .collect())
}

/// The parent member of `member` at `parent_level`, if any.
pub fn parent_member(
    endpoint: &dyn Endpoint,
    member: &Term,
    parent_level: &Iri,
) -> Result<Option<Term>, Qb4olapError> {
    let Term::Iri(member_iri) = member else {
        return Ok(None);
    };
    let solutions = endpoint.select(&format!(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
         SELECT ?parent WHERE {{
           <{m}> skos:broader ?parent .
           ?parent qb4o:memberOf <{parent}> .
         }}",
        m = member_iri.as_str(),
        parent = parent_level.as_str()
    ))?;
    Ok(solutions.get(0, "parent").cloned())
}

/// The attribute value of a member, if present.
pub fn attribute_value(
    endpoint: &dyn Endpoint,
    member: &Term,
    attribute: &Iri,
) -> Result<Option<Term>, Qb4olapError> {
    let Term::Iri(member_iri) = member else {
        return Ok(None);
    };
    let solutions = endpoint.select(&format!(
        "SELECT ?v WHERE {{ <{m}> <{attr}> ?v }}",
        m = member_iri.as_str(),
        attr = attribute.as_str()
    ))?;
    Ok(solutions.get(0, "v").cloned())
}

/// Checks that every member of `child_level` that has a roll-up link to a
/// member of `parent_level` has exactly one such link — the instance-level
/// counterpart of a `ManyToOne` hierarchy step. Returns the members that
/// violate the constraint.
pub fn non_functional_members(
    endpoint: &dyn Endpoint,
    child_level: &Iri,
    parent_level: &Iri,
) -> Result<Vec<Term>, Qb4olapError> {
    let solutions = endpoint.select(&format!(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
         SELECT ?child (COUNT(DISTINCT ?parent) AS ?n) WHERE {{
           ?child qb4o:memberOf <{child}> ; skos:broader ?parent .
           ?parent qb4o:memberOf <{parent}> .
         }} GROUP BY ?child HAVING (COUNT(DISTINCT ?parent) > 1) ORDER BY ?child",
        child = child_level.as_str(),
        parent = parent_level.as_str()
    ))?;
    Ok(solutions
        .rows()
        .filter_map(|r| solutions.term(r[0]).cloned())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::Literal;
    use sparql::LocalEndpoint;

    fn level(name: &str) -> Iri {
        Iri::new(format!("http://example.org/level/{name}"))
    }

    fn member(name: &str) -> Term {
        Term::iri(format!("http://example.org/member/{name}"))
    }

    fn endpoint_with_instances() -> LocalEndpoint {
        let endpoint = LocalEndpoint::new();
        let mut triples = Vec::new();
        for (m, l) in [
            ("SY", "country"),
            ("NG", "country"),
            ("FR", "country"),
            ("Asia", "continent"),
            ("Africa", "continent"),
            ("Europe", "continent"),
        ] {
            triples.push(member_of_triple(&member(m), &level(l)));
        }
        for (c, p) in [("SY", "Asia"), ("NG", "Africa"), ("FR", "Europe")] {
            triples.push(rollup_triple(&member(c), &member(p)));
        }
        triples.push(attribute_triple(
            &member("Africa"),
            &Iri::new("http://example.org/attr/continentName"),
            &Term::Literal(Literal::string("Africa")),
        ));
        endpoint.insert_triples(&triples).unwrap();
        endpoint
    }

    #[test]
    fn members_and_counts() {
        let ep = endpoint_with_instances();
        assert_eq!(members_of_level(&ep, &level("country")).unwrap().len(), 3);
        assert_eq!(member_count(&ep, &level("continent")).unwrap(), 3);
        assert_eq!(member_count(&ep, &level("missing")).unwrap(), 0);
    }

    #[test]
    fn rollups_and_parent_lookup() {
        let ep = endpoint_with_instances();
        let pairs = rollup_pairs(&ep, &level("country"), &level("continent")).unwrap();
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(member("SY"), member("Asia"))));
        assert_eq!(
            parent_member(&ep, &member("NG"), &level("continent")).unwrap(),
            Some(member("Africa"))
        );
        assert_eq!(
            parent_member(&ep, &member("NG"), &level("country")).unwrap(),
            None
        );
        assert_eq!(
            parent_member(
                &ep,
                &Term::Literal(Literal::string("x")),
                &level("continent")
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn attribute_lookup() {
        let ep = endpoint_with_instances();
        assert_eq!(
            attribute_value(
                &ep,
                &member("Africa"),
                &Iri::new("http://example.org/attr/continentName")
            )
            .unwrap(),
            Some(Term::Literal(Literal::string("Africa")))
        );
        assert_eq!(
            attribute_value(
                &ep,
                &member("Asia"),
                &Iri::new("http://example.org/attr/continentName")
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn functional_rollup_violations_detected() {
        let ep = endpoint_with_instances();
        assert!(
            non_functional_members(&ep, &level("country"), &level("continent"))
                .unwrap()
                .is_empty()
        );
        // Give Syria a second continent to break functionality.
        ep.insert_triples(&[rollup_triple(&member("SY"), &member("Europe"))])
            .unwrap();
        let violators =
            non_functional_members(&ep, &level("country"), &level("continent")).unwrap();
        assert_eq!(violators, vec![member("SY")]);
    }
}
