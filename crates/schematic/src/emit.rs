//! Appending helpers shared by the dialect writers: every field goes
//! straight into the one output `String`, with no temporary per field.

/// Appends the decimal form of `v`, as `v.to_string()` renders it.
pub(crate) fn push_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut n = v.unsigned_abs();
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Appends `parts` separated by single spaces, each after a space.
pub(crate) fn push_ints(out: &mut String, parts: &[i64]) {
    for &v in parts {
        out.push(' ');
        push_int(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_render_like_to_string() {
        for v in [0, 7, -7, 10, -10, 1234567890, i64::MAX, i64::MIN] {
            let mut s = String::new();
            push_int(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }
}
