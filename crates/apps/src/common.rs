//! Shared helpers for the benchmark ports.

/// Value following a flag, C-getopt style: `flag_value(&argv, "-l")`.
pub fn flag_value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|p| argv.get(p + 1))
        .map(String::as_str)
}

/// Parse the value of `flag` as `u64`, with a default.
pub fn parse_flag_or(argv: &[String], flag: &str, default: u64) -> u64 {
    flag_value(argv, flag)
        .map(|v| device_libc::string::parse_c_int(v).max(0) as u64)
        .unwrap_or(default)
}

/// Check that every occurrence of each of `flags` in `argv` carries a
/// non-negative integer value. The apps parse numbers C-style, so `-5`
/// or `junk` would otherwise be silently coerced.
pub(crate) fn check_numeric_flags(argv: &[String], flags: &[&str]) -> Result<(), String> {
    for (i, a) in argv.iter().enumerate() {
        if !flags.contains(&a.as_str()) {
            continue;
        }
        match argv.get(i + 1) {
            Some(v) if v.parse::<u64>().is_ok() => {}
            Some(v) => return Err(format!("flag {a} needs a non-negative integer, got `{v}`")),
            None => {
                return Err(format!(
                    "flag {a} needs a non-negative integer, got nothing"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_extraction() {
        let a = argv(&["prog", "-l", "500", "-g"]);
        assert_eq!(flag_value(&a, "-l"), Some("500"));
        assert_eq!(flag_value(&a, "-g"), None); // trailing flag, no value
        assert_eq!(flag_value(&a, "-x"), None);
    }

    #[test]
    fn parse_with_defaults() {
        let a = argv(&["prog", "-l", "500", "-b", "junk"]);
        assert_eq!(parse_flag_or(&a, "-l", 9), 500);
        assert_eq!(parse_flag_or(&a, "-b", 9), 0); // junk parses to 0, C-style
        assert_eq!(parse_flag_or(&a, "-z", 9), 9);
    }

    #[test]
    fn numeric_flags_must_be_non_negative_integers() {
        let flags = ["-l", "-g"];
        assert!(check_numeric_flags(&argv(&["-l", "5", "-g", "0", "-s", "x"]), &flags).is_ok());
        for (line, flag) in [
            (&["-l", "-5", "-g", "16"][..], "-l"),
            (&["-g", "junk"][..], "-g"),
            (&["-l", "1.5"][..], "-l"),
            (&["-l", "5", "-l", "-1"][..], "-l"),
            (&["-g"][..], "-g"),
        ] {
            let err = check_numeric_flags(&argv(line), &flags).unwrap_err();
            assert!(err.starts_with(&format!("flag {flag} ")), "{line:?}: {err}");
        }
    }
}
