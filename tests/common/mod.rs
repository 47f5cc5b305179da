//! Edit synthesis shared by the serve integration tests: deterministic
//! single-function edits over generated workload rungs.

/// `helper*` spans as `(name, start, end)` line ranges.
fn helper_spans(lines: &[&str]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0i64;
    let mut open: Option<(String, usize)> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if depth == 0 {
            if let Some(rest) = code.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.starts_with("helper") {
                    open = Some((name, i));
                }
            }
        }
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        if depth == 0 {
            if let Some((name, start)) = open.take() {
                spans.push((name, start, i + 1));
            }
        }
    }
    spans
}

fn const_swap(line: &str) -> Option<String> {
    let eq = line.rfind(" = ")?;
    let digits = line[eq + 3..].trim_end().strip_suffix(';')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: u64 = digits.parse().ok()?;
    Some(format!("{} = {};", &line[..eq], (n + 11) % 89 + 1))
}

/// Swaps the first binary `&` or `^` of `line` for the other: an int
/// operator change that keeps every operand, so the pointer gates pass
/// but the constant-only cutoff does not.
fn op_swap(line: &str) -> Option<String> {
    let at = [" & ", " ^ "].iter().filter_map(|op| line.find(op)).min()?;
    let op = if line[at..].starts_with(" & ") {
        " ^ "
    } else {
        " & "
    };
    Some(format!("{}{op}{}", &line[..at], &line[at + 3..]))
}

/// Rewrites the first line after the signature that `swap` changes, in
/// the helper picked by `k` or the next one that has such a line, as
/// `(func, body)`.
fn swap_in_helper(
    source: &str,
    k: usize,
    swap: fn(&str) -> Option<String>,
) -> Option<(String, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let spans = helper_spans(&lines);
    for off in 0..spans.len() {
        let (name, start, end) = &spans[(k * 7 + off) % spans.len()];
        let body = &lines[*start..*end];
        for (j, line) in body.iter().enumerate().skip(1) {
            if let Some(s) = swap(line) {
                let mut b: Vec<String> = body.iter().map(|s| s.to_string()).collect();
                b[j] = s;
                return Some((name.clone(), b.join("\n")));
            }
        }
    }
    None
}

/// Builds edit `k` for the current source as `(func, body)`: even `k`
/// const-swaps a helper body (incremental candidate), odd `k` inserts a
/// declaration: a scalar that `mem2reg` promotes (`k % 4 == 1`,
/// incremental candidate) or an address-taken one (`k % 4 == 3`, which
/// keeps a new object — must fall back).
pub fn synthesize_edit(source: &str, k: usize) -> Option<(String, String)> {
    if k % 2 == 1 {
        let lines: Vec<&str> = source.lines().collect();
        let spans = helper_spans(&lines);
        let (name, start, end) = spans.get((k * 7) % spans.len().max(1))?;
        let mut b: Vec<String> = lines[*start..*end].iter().map(|s| s.to_string()).collect();
        b.insert(1, format!("    int edit_x{k} = 3;"));
        if k % 4 == 3 {
            b.insert(2, format!("    int *edit_p{k} = &edit_x{k};"));
        }
        return Some((name.clone(), b.join("\n")));
    }
    swap_in_helper(source, k, const_swap)
}

/// Builds operator-swap edit `k` for the current source as `(func,
/// body)`: one helper's `&` becomes `^` or back, an incremental edit
/// that changes value flow.
#[allow(dead_code)] // only the perf gates swap operators
pub fn synthesize_op_swap(source: &str, k: usize) -> Option<(String, String)> {
    swap_in_helper(source, k, op_swap)
}
