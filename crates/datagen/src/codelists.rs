//! Code lists used by the synthetic Eurostat `migr_asyappctzm` dataset.
//!
//! The lists reproduce the *structure* of the Eurostat dictionaries
//! (`dic:citizen`, `dic:geo`, `dic:age`, `dic:sex`, `dic:asyl_app`): codes,
//! English labels, and the cross-cutting properties (continent, political
//! organisation, government type, population) that the Enrichment module's
//! functional-dependency discovery is supposed to find.

/// A country of citizenship: `(code, label, continent, government type, population in millions)`.
pub const CITIZEN_COUNTRIES: &[(&str, &str, &str, &str, u32)] = &[
    ("SY", "Syria", "Asia", "UnitaryRepublic", 22),
    ("AF", "Afghanistan", "Asia", "IslamicRepublic", 33),
    ("IQ", "Iraq", "Asia", "FederalRepublic", 36),
    ("IR", "Iran", "Asia", "IslamicRepublic", 78),
    ("PK", "Pakistan", "Asia", "FederalRepublic", 185),
    ("BD", "Bangladesh", "Asia", "UnitaryRepublic", 156),
    ("CN", "China", "Asia", "SocialistRepublic", 1364),
    ("VN", "Vietnam", "Asia", "SocialistRepublic", 91),
    ("LK", "Sri Lanka", "Asia", "UnitaryRepublic", 20),
    ("GE", "Georgia", "Asia", "UnitaryRepublic", 4),
    ("AM", "Armenia", "Asia", "UnitaryRepublic", 3),
    ("LB", "Lebanon", "Asia", "ParliamentaryRepublic", 5),
    ("NG", "Nigeria", "Africa", "FederalRepublic", 177),
    ("ER", "Eritrea", "Africa", "UnitaryRepublic", 5),
    ("SO", "Somalia", "Africa", "FederalRepublic", 10),
    ("GM", "Gambia", "Africa", "UnitaryRepublic", 2),
    ("ML", "Mali", "Africa", "UnitaryRepublic", 17),
    ("SN", "Senegal", "Africa", "UnitaryRepublic", 14),
    ("DZ", "Algeria", "Africa", "UnitaryRepublic", 39),
    ("MA", "Morocco", "Africa", "ConstitutionalMonarchy", 34),
    ("TN", "Tunisia", "Africa", "UnitaryRepublic", 11),
    ("EG", "Egypt", "Africa", "UnitaryRepublic", 89),
    ("ET", "Ethiopia", "Africa", "FederalRepublic", 97),
    ("CD", "DR Congo", "Africa", "UnitaryRepublic", 74),
    ("GN", "Guinea", "Africa", "UnitaryRepublic", 12),
    ("CI", "Ivory Coast", "Africa", "UnitaryRepublic", 22),
    ("RS", "Serbia", "Europe", "ParliamentaryRepublic", 7),
    ("AL", "Albania", "Europe", "ParliamentaryRepublic", 3),
    ("XK", "Kosovo", "Europe", "ParliamentaryRepublic", 2),
    (
        "MK",
        "North Macedonia",
        "Europe",
        "ParliamentaryRepublic",
        2,
    ),
    (
        "BA",
        "Bosnia and Herzegovina",
        "Europe",
        "FederalRepublic",
        4,
    ),
    ("UA", "Ukraine", "Europe", "UnitaryRepublic", 45),
    ("RU", "Russia", "Europe", "FederalRepublic", 144),
    ("TR", "Turkey", "Asia", "UnitaryRepublic", 77),
    ("CO", "Colombia", "America", "UnitaryRepublic", 47),
    ("VE", "Venezuela", "America", "FederalRepublic", 30),
    ("HT", "Haiti", "America", "UnitaryRepublic", 10),
    ("SV", "El Salvador", "America", "UnitaryRepublic", 6),
    ("US", "United States", "America", "FederalRepublic", 318),
    ("LY", "Libya", "Africa", "ProvisionalGovernment", 6),
    ("SD", "Sudan", "Africa", "FederalRepublic", 37),
    ("SS", "South Sudan", "Africa", "FederalRepublic", 11),
    ("IN", "India", "Asia", "FederalRepublic", 1295),
    ("NP", "Nepal", "Asia", "FederalRepublic", 28),
    ("MM", "Myanmar", "Asia", "UnitaryRepublic", 53),
    ("PH", "Philippines", "Asia", "UnitaryRepublic", 99),
    ("JO", "Jordan", "Asia", "ConstitutionalMonarchy", 7),
    ("SA", "Saudi Arabia", "Asia", "AbsoluteMonarchy", 30),
    ("AO", "Angola", "Africa", "UnitaryRepublic", 24),
    ("CM", "Cameroon", "Africa", "UnitaryRepublic", 22),
];

/// A destination (host) country: `(code, label, continent, political organisation, EU member)`.
pub const GEO_COUNTRIES: &[(&str, &str, &str, &str, bool)] = &[
    ("DE", "Germany", "Europe", "EU", true),
    ("FR", "France", "Europe", "EU", true),
    ("IT", "Italy", "Europe", "EU", true),
    ("ES", "Spain", "Europe", "EU", true),
    ("SE", "Sweden", "Europe", "EU", true),
    ("HU", "Hungary", "Europe", "EU", true),
    ("AT", "Austria", "Europe", "EU", true),
    ("BE", "Belgium", "Europe", "EU", true),
    ("NL", "Netherlands", "Europe", "EU", true),
    ("UK", "United Kingdom", "Europe", "EU", true),
    ("PL", "Poland", "Europe", "EU", true),
    ("EL", "Greece", "Europe", "EU", true),
    ("BG", "Bulgaria", "Europe", "EU", true),
    ("RO", "Romania", "Europe", "EU", true),
    ("DK", "Denmark", "Europe", "EU", true),
    ("FI", "Finland", "Europe", "EU", true),
    ("IE", "Ireland", "Europe", "EU", true),
    ("PT", "Portugal", "Europe", "EU", true),
    ("CZ", "Czechia", "Europe", "EU", true),
    ("SK", "Slovakia", "Europe", "EU", true),
    ("SI", "Slovenia", "Europe", "EU", true),
    ("HR", "Croatia", "Europe", "EU", true),
    ("LT", "Lithuania", "Europe", "EU", true),
    ("LV", "Latvia", "Europe", "EU", true),
    ("EE", "Estonia", "Europe", "EU", true),
    ("LU", "Luxembourg", "Europe", "EU", true),
    ("MT", "Malta", "Europe", "EU", true),
    ("CY", "Cyprus", "Europe", "EU", true),
    ("CH", "Switzerland", "Europe", "EFTA", false),
    ("NO", "Norway", "Europe", "EFTA", false),
    ("IS", "Iceland", "Europe", "EFTA", false),
    ("LI", "Liechtenstein", "Europe", "EFTA", false),
];

/// Age classes: `(code, label, broader age group)`.
pub const AGE_CLASSES: &[(&str, &str, &str)] = &[
    ("Y_LT14", "Less than 14 years", "Minor"),
    ("Y14-17", "From 14 to 17 years", "Minor"),
    ("Y18-34", "From 18 to 34 years", "Adult"),
    ("Y35-64", "From 35 to 64 years", "Adult"),
    ("Y_GE65", "65 years or over", "Senior"),
    ("UNK", "Unknown", "Unknown"),
];

/// Sex codes: `(code, label)`.
pub const SEXES: &[(&str, &str)] = &[("M", "Males"), ("F", "Females"), ("UNK", "Unknown")];

/// Asylum applicant types: `(code, label)`.
pub const ASYL_APP_TYPES: &[(&str, &str)] = &[
    ("ASY_APP", "Asylum applicant"),
    ("NASY_APP", "First time asylum applicant"),
];

/// Continents appearing in the code lists.
pub const CONTINENTS: &[&str] = &["Africa", "Asia", "Europe", "America"];

/// The months of the demo subset (2013-01 .. 2014-12), as `(year, month)`.
pub fn demo_months() -> Vec<(i32, u32)> {
    let mut months = Vec::with_capacity(24);
    for year in [2013, 2014] {
        for month in 1..=12 {
            months.push((year, month));
        }
    }
    months
}

/// Looks up a citizenship country row by code.
pub fn citizen_by_code(
    code: &str,
) -> Option<&'static (&'static str, &'static str, &'static str, &'static str, u32)> {
    CITIZEN_COUNTRIES.iter().find(|(c, ..)| *c == code)
}

/// Looks up a destination country row by code.
pub fn geo_by_code(
    code: &str,
) -> Option<&'static (&'static str, &'static str, &'static str, &'static str, bool)> {
    GEO_COUNTRIES.iter().find(|(c, ..)| *c == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn code_lists_are_consistent() {
        let codes: BTreeSet<&str> = CITIZEN_COUNTRIES.iter().map(|(c, ..)| *c).collect();
        assert_eq!(
            codes.len(),
            CITIZEN_COUNTRIES.len(),
            "citizen codes must be unique"
        );
        let geo_codes: BTreeSet<&str> = GEO_COUNTRIES.iter().map(|(c, ..)| *c).collect();
        assert_eq!(
            geo_codes.len(),
            GEO_COUNTRIES.len(),
            "geo codes must be unique"
        );
        for (_, _, continent, _, _) in CITIZEN_COUNTRIES {
            assert!(
                CONTINENTS.contains(continent),
                "unknown continent {continent}"
            );
        }
    }

    #[test]
    fn demo_months_cover_two_years() {
        let months = demo_months();
        assert_eq!(months.len(), 24);
        assert_eq!(months.first(), Some(&(2013, 1)));
        assert_eq!(months.last(), Some(&(2014, 12)));
    }

    #[test]
    fn lookups_work() {
        assert_eq!(citizen_by_code("SY").map(|r| r.2), Some("Asia"));
        assert_eq!(citizen_by_code("NG").map(|r| r.2), Some("Africa"));
        assert_eq!(geo_by_code("FR").map(|r| r.3), Some("EU"));
        assert_eq!(geo_by_code("CH").map(|r| r.3), Some("EFTA"));
        assert!(citizen_by_code("ZZ").is_none());
    }

    #[test]
    fn scale_supports_80k_distinct_observations() {
        // The demo subset has ~80,000 observations; the cross product of the
        // code lists must be able to provide that many distinct dimension
        // combinations.
        let combos = CITIZEN_COUNTRIES.len()
            * GEO_COUNTRIES.len()
            * demo_months().len()
            * AGE_CLASSES.len()
            * SEXES.len()
            * ASYL_APP_TYPES.len();
        assert!(combos >= 80_000, "only {combos} combinations available");
    }
}
