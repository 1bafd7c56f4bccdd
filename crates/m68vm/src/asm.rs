//! A two-pass assembler for the VM's instruction set.
//!
//! The syntax is a readable subset of classic `as` for the 68k:
//!
//! ```text
//! | The paper's test program skeleton.
//!         .text
//!         .global start
//! start:  move.l  #0, d1
//! loop:   add.l   #1, d1
//!         add.l   #1, counter
//!         cmp.l   #100, d1
//!         blt     loop
//!         move.l  #1, d0          | exit(0)
//!         move.l  #0, d1
//!         trap    #0
//!         .data
//! counter:.long   0
//! msg:    .asciz  "hello, world\n"
//!         .bss
//! buf:    .space  128
//! ```
//!
//! * Comments start with `|` or `;` and run to end of line.
//! * Labels end with `:`; `start` (or `_start`) names the entry point.
//! * Operands: `#imm`, `dN`, `aN`/`sp`, `(aN)`, `(aN)+`, `-(aN)`,
//!   `disp(aN)`, and bare symbols/numbers as absolute addresses.
//!   Immediates and displacements accept decimal, `0x` hex, `0o` octal,
//!   character literals `'c'`, and `symbol+n` / `symbol-n` expressions.
//! * Directives: `.text`, `.data`, `.bss`, `.section <name>`, `.global`,
//!   `.byte`, `.word`, `.long`, `.ascii`, `.asciz`, `.space`, `.align`,
//!   `.equ`. Unknown sections and directives are reported as errors with
//!   the offending line, never a panic.
//!
//! Pass one sizes every item (instruction lengths depend only on operand
//! *forms*); pass two resolves symbols and encodes.

use std::collections::BTreeMap;

use crate::encode::encode;
use crate::isa::{Instr, IsaLevel, Op, Operand, Size};
use crate::mem::MemoryLayout;
use crate::object::Object;

/// An assembly failure with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Section {
    Text,
    Data,
    Bss,
}

/// A symbolic operand, resolved to a concrete [`Operand`] in pass two.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SymOperand {
    Ready(Operand),
    /// `#symbol+off`.
    ImmSym(String, i64),
    /// Bare `symbol+off` used as an absolute address.
    AbsSym(String, i64),
    /// `symbol(aN)`.
    DispSym(String, i64, u8),
}

impl SymOperand {
    fn has_ext(&self) -> bool {
        match self {
            SymOperand::Ready(o) => o.has_ext(),
            _ => true,
        }
    }
}

#[derive(Clone, Debug)]
enum Item {
    Instr {
        line: usize,
        op: Op,
        size: Size,
        src: SymOperand,
        dst: SymOperand,
    },
    Bytes {
        /// Source line, for section-placement diagnostics.
        line: usize,
        bytes: Vec<u8>,
    },
    Space(u32),
}

impl Item {
    fn len(&self) -> u32 {
        match self {
            Item::Instr { src, dst, .. } => {
                let mut n = 4;
                if src.has_ext() {
                    n += 4;
                }
                if dst.has_ext() {
                    n += 4;
                }
                n
            }
            Item::Bytes { bytes, .. } => bytes.len() as u32,
            Item::Space(n) => *n,
        }
    }
}

/// Assembles a source file into an [`Object`].
pub fn assemble(source: &str) -> Result<Object, AsmError> {
    // Items per section, indexed by `sec_idx` — infallible by
    // construction (a string-keyed map here once left `assemble` one
    // misspelled key away from a `get_mut(...).unwrap()` panic; an
    // unknown section name must surface as an `AsmError` instead).
    let mut sections: [Vec<Item>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    // Symbol name -> (section, offset) or absolute value (.equ).
    let mut sym_loc: BTreeMap<String, (Section, u32)> = BTreeMap::new();
    let mut sym_abs: BTreeMap<String, i64> = BTreeMap::new();
    let mut offsets = [0u32; 3]; // text, data, bss
    let mut section = Section::Text;

    fn sec_idx(s: Section) -> usize {
        match s {
            Section::Text => 0,
            Section::Data => 1,
            Section::Bss => 2,
        }
    }
    fn sec_by_name(name: &str) -> Option<Section> {
        match name.trim_start_matches('.') {
            "text" => Some(Section::Text),
            "data" => Some(Section::Data),
            "bss" => Some(Section::Bss),
            _ => None,
        }
    }

    // ---------- Pass one: parse, size, place symbols ----------
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = strip_comment(raw).trim().to_string();
        // Labels (possibly several) at the front.
        while let Some(colon) = find_label_colon(&text) {
            let label = text[..colon].trim().to_string();
            if label.is_empty() || !is_ident(&label) {
                return err(line, format!("bad label `{label}`"));
            }
            if sym_loc.contains_key(&label) || sym_abs.contains_key(&label) {
                return err(line, format!("duplicate symbol `{label}`"));
            }
            sym_loc.insert(label, (section, offsets[sec_idx(section)]));
            text = text[colon + 1..].trim().to_string();
        }
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('.') {
            // Directive.
            let (dir, args) = split_first_word(rest);
            match dir {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "bss" => section = Section::Bss,
                "section" => {
                    let name = args.trim();
                    if name.is_empty() {
                        return err(line, ".section needs a name");
                    }
                    section = sec_by_name(name).ok_or_else(|| AsmError {
                        line,
                        message: format!(
                            "unknown section `{name}` (this assembler has .text, .data and .bss)"
                        ),
                    })?;
                }
                "global" | "globl" => {} // Accepted; all symbols are visible.
                "equ" => {
                    let parts: Vec<&str> = args.splitn(2, ',').collect();
                    if parts.len() != 2 {
                        return err(line, ".equ needs `name, value`");
                    }
                    let name = parts[0].trim().to_string();
                    let value = parse_int(parts[1].trim()).ok_or_else(|| AsmError {
                        line,
                        message: format!("bad .equ value `{}`", parts[1].trim()),
                    })?;
                    sym_abs.insert(name, value);
                }
                "byte" | "word" | "long" | "ascii" | "asciz" | "space" | "align" => {
                    let item = parse_data_directive(dir, args, line, section)?;
                    let idx = sec_idx(section);
                    // .align pads relative to the current offset.
                    let item = if dir == "align" {
                        let n = match item {
                            Item::Space(n) => n,
                            _ => unreachable!(),
                        };
                        let cur = offsets[idx];
                        let pad = if n == 0 { 0 } else { (n - cur % n) % n };
                        Item::Space(pad)
                    } else {
                        item
                    };
                    offsets[idx] += item.len();
                    sections[idx].push(item);
                }
                other => return err(line, format!("unknown directive `.{other}`")),
            }
            continue;
        }
        // Instruction.
        if section != Section::Text {
            return err(line, "instructions are only allowed in .text");
        }
        let item = parse_instruction(&text, line)?;
        offsets[0] += item.len();
        sections[sec_idx(Section::Text)].push(item);
    }

    // ---------- Address plan ----------
    let text_len = offsets[0];
    let data_base = MemoryLayout::data_base(text_len);
    let bss_base = data_base + offsets[1];
    let addr_of = |sec: Section, off: u32| -> u32 {
        match sec {
            Section::Text => MemoryLayout::TEXT_BASE + off,
            Section::Data => data_base + off,
            Section::Bss => bss_base + off,
        }
    };

    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    for (name, (sec, off)) in &sym_loc {
        symbols.insert(name.clone(), addr_of(*sec, *off));
    }
    for (name, value) in &sym_abs {
        symbols.insert(name.clone(), *value as u32);
    }

    let resolve = |name: &str, add: i64, line: usize| -> Result<u32, AsmError> {
        let base = symbols.get(name).copied().ok_or_else(|| AsmError {
            line,
            message: format!("undefined symbol `{name}`"),
        })?;
        Ok((base as i64 + add) as u32)
    };

    // ---------- Pass two: encode ----------
    let mut required_isa = IsaLevel::Isa1;
    let mut text = Vec::with_capacity(text_len as usize);
    for item in &sections[sec_idx(Section::Text)] {
        match item {
            Item::Instr {
                line,
                op,
                size,
                src,
                dst,
            } => {
                if op.isa2_only() {
                    required_isa = IsaLevel::Isa2;
                }
                let src = resolve_operand(src, *line, &resolve)?;
                let dst = resolve_operand(dst, *line, &resolve)?;
                let instr = Instr::new(*op, *size, src, dst);
                encode(&instr, &mut text);
            }
            Item::Bytes { bytes, .. } => text.extend_from_slice(bytes),
            Item::Space(n) => text.extend(std::iter::repeat_n(0u8, *n as usize)),
        }
    }
    let mut data = Vec::with_capacity(offsets[1] as usize);
    for item in &sections[sec_idx(Section::Data)] {
        match item {
            Item::Bytes { bytes, .. } => data.extend_from_slice(bytes),
            Item::Space(n) => data.extend(std::iter::repeat_n(0u8, *n as usize)),
            Item::Instr { line, .. } => return err(*line, "instruction in .data"),
        }
    }
    let mut bss_len = 0u32;
    for item in &sections[sec_idx(Section::Bss)] {
        match item {
            Item::Space(n) => bss_len += n,
            Item::Bytes { bytes, .. } if bytes.iter().all(|&x| x == 0) => {
                bss_len += bytes.len() as u32
            }
            Item::Bytes { line, .. } => {
                return err(*line, "non-zero data in .bss");
            }
            Item::Instr { line, .. } => return err(*line, "instruction in .bss"),
        }
    }

    let entry = symbols
        .get("start")
        .or_else(|| symbols.get("_start"))
        .copied()
        .unwrap_or(MemoryLayout::TEXT_BASE);

    Ok(Object {
        text,
        data,
        bss_len,
        entry,
        symbols,
        required_isa,
    })
}

fn resolve_operand(
    s: &SymOperand,
    line: usize,
    resolve: &dyn Fn(&str, i64, usize) -> Result<u32, AsmError>,
) -> Result<Operand, AsmError> {
    Ok(match s {
        SymOperand::Ready(o) => *o,
        SymOperand::ImmSym(name, add) => Operand::Imm(resolve(name, *add, line)?),
        SymOperand::AbsSym(name, add) => Operand::Abs(resolve(name, *add, line)?),
        SymOperand::DispSym(name, add, reg) => {
            Operand::IndDisp(*reg, resolve(name, *add, line)? as i32)
        }
    })
}

fn strip_comment(line: &str) -> &str {
    // Comments start with `|` or `;` outside of string/char literals.
    let mut in_str = false;
    let mut in_char = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !in_char && !prev_escape => in_str = !in_str,
            '\'' if !in_str && !prev_escape => in_char = !in_char,
            '|' | ';' if !in_str && !in_char => return &line[..i],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

fn find_label_colon(line: &str) -> Option<usize> {
    // A label is an identifier followed by `:` before any whitespace-free
    // non-identifier text.
    let mut chars = line.char_indices();
    let mut seen_ident = false;
    for (i, c) in &mut chars {
        if c == ':' {
            return if seen_ident { Some(i) } else { None };
        }
        if c.is_alphanumeric() || c == '_' || c == '.' {
            seen_ident = true;
        } else {
            return None;
        }
    }
    None
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
}

fn split_first_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

/// Parses integers: decimal, 0x/0o prefixed, 'c' char literals, negatives.
fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('\'') {
        let body = body.strip_suffix('\'')?;
        let c = unescape_char(body)?;
        return Some(c as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(h) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(h, 16).ok()?
    } else if let Some(o) = body.strip_prefix("0o").or_else(|| body.strip_prefix("0O")) {
        i64::from_str_radix(o, 8).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn unescape_char(s: &str) -> Option<char> {
    let mut it = s.chars();
    match it.next()? {
        '\\' => {
            let c = it.next()?;
            if it.next().is_some() {
                return None;
            }
            Some(match c {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                '0' => '\0',
                '\\' => '\\',
                '\'' => '\'',
                '"' => '"',
                _ => return None,
            })
        }
        c => {
            if it.next().is_some() {
                None
            } else {
                Some(c)
            }
        }
    }
}

fn unescape_string(s: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let mut out = Vec::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            let e = chars.next().ok_or_else(|| AsmError {
                line,
                message: "dangling escape in string".into(),
            })?;
            out.push(match e {
                'n' => b'\n',
                't' => b'\t',
                'r' => b'\r',
                '0' => 0,
                '\\' => b'\\',
                '"' => b'"',
                other => {
                    return err(line, format!("unknown escape `\\{other}`"));
                }
            });
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
    Ok(out)
}

fn parse_data_directive(
    dir: &str,
    args: &str,
    line: usize,
    section: Section,
) -> Result<Item, AsmError> {
    match dir {
        "byte" | "word" | "long" => {
            let mut bytes = Vec::new();
            for part in args.split(',') {
                let v = parse_int(part.trim()).ok_or_else(|| AsmError {
                    line,
                    message: format!("bad integer `{}`", part.trim()),
                })?;
                match dir {
                    "byte" => bytes.push(v as u8),
                    "word" => bytes.extend_from_slice(&(v as u16).to_be_bytes()),
                    _ => bytes.extend_from_slice(&(v as u32).to_be_bytes()),
                }
            }
            if section == Section::Bss && bytes.iter().any(|&b| b != 0) {
                return err(line, "non-zero initialiser in .bss");
            }
            Ok(Item::Bytes { line, bytes })
        }
        "ascii" | "asciz" => {
            let args = args.trim();
            let inner = args
                .strip_prefix('"')
                .and_then(|a| a.strip_suffix('"'))
                .ok_or_else(|| AsmError {
                    line,
                    message: "string directives need a quoted string".into(),
                })?;
            let mut bytes = unescape_string(inner, line)?;
            if dir == "asciz" {
                bytes.push(0);
            }
            Ok(Item::Bytes { line, bytes })
        }
        "space" | "align" => {
            let n = parse_int(args).ok_or_else(|| AsmError {
                line,
                message: format!("bad count `{args}`"),
            })?;
            if n < 0 {
                return err(line, "negative size");
            }
            Ok(Item::Space(n as u32))
        }
        _ => unreachable!("checked by caller"),
    }
}

fn mnemonic_to_op(m: &str) -> Option<Op> {
    use Op::*;
    Some(match m {
        "move" => Move,
        "lea" => Lea,
        "add" => Add,
        "sub" => Sub,
        "muls" => Muls,
        "divs" => Divs,
        "and" => And,
        "or" => Or,
        "eor" => Eor,
        "not" => Not,
        "neg" => Neg,
        "lsl" => Lsl,
        "lsr" => Lsr,
        "asr" => Asr,
        "cmp" => Cmp,
        "tst" => Tst,
        "bra" => Bra,
        "beq" => Beq,
        "bne" => Bne,
        "blt" => Blt,
        "ble" => Ble,
        "bgt" => Bgt,
        "bge" => Bge,
        "bcs" => Bcs,
        "bcc" => Bcc,
        "bmi" => Bmi,
        "bpl" => Bpl,
        "jsr" => Jsr,
        "rts" => Rts,
        "trap" => Trap,
        "nop" => Nop,
        "mac2" => Mac2,
        "bfextu2" => Bfextu2,
        "extb2" => Extb2,
        _ => return None,
    })
}

fn parse_instruction(text: &str, line: usize) -> Result<Item, AsmError> {
    let (head, rest) = split_first_word(text);
    let (mnemonic, size) = match head.rsplit_once('.') {
        Some((m, "b")) => (m, Size::Byte),
        Some((m, "w")) => (m, Size::Word),
        Some((m, "l")) => (m, Size::Long),
        _ => (head, Size::Long),
    };
    let op = mnemonic_to_op(mnemonic).ok_or_else(|| AsmError {
        line,
        message: format!("unknown mnemonic `{head}`"),
    })?;
    let operands = split_operands(rest);
    let parsed: Vec<SymOperand> = operands
        .iter()
        .map(|o| parse_operand(o, line))
        .collect::<Result<_, _>>()?;

    use Op::*;
    let (src, dst) = match (op, parsed.len()) {
        (Rts | Nop, 0) => (
            SymOperand::Ready(Operand::None),
            SymOperand::Ready(Operand::None),
        ),
        (Trap, 1) => (parsed[0].clone(), SymOperand::Ready(Operand::None)),
        // One-operand destination forms.
        (Not | Neg | Tst | Extb2, 1) => (SymOperand::Ready(Operand::None), parsed[0].clone()),
        // Branches and jsr take a target as destination.
        (Jsr, 1) => (SymOperand::Ready(Operand::None), parsed[0].clone()),
        (o, 1) if o.is_branch() => (SymOperand::Ready(Operand::None), parsed[0].clone()),
        // Two-operand source, destination forms.
        (
            Move | Lea | Add | Sub | Muls | Divs | And | Or | Eor | Lsl | Lsr | Asr | Cmp | Mac2
            | Bfextu2,
            2,
        ) => (parsed[0].clone(), parsed[1].clone()),
        (o, n) => {
            return err(
                line,
                format!("`{}` does not take {n} operand(s)", o.mnemonic()),
            )
        }
    };
    Ok(Item::Instr {
        line,
        op,
        size,
        src,
        dst,
    })
}

/// Splits an operand list on commas that are not inside parentheses or
/// character literals.
fn split_operands(s: &str) -> Vec<String> {
    let s = s.trim();
    if s.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_char = false;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '\'' => {
                in_char = !in_char;
                cur.push(c);
            }
            '(' if !in_char => {
                depth += 1;
                cur.push(c);
            }
            ')' if !in_char => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 && !in_char => {
                out.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parses `symbol`, `symbol+n`, `symbol-n`, or a plain integer.
fn parse_sym_expr(s: &str) -> Option<(Option<String>, i64)> {
    let s = s.trim();
    if let Some(v) = parse_int(s) {
        return Some((None, v));
    }
    // Find a top-level + or - after the first character.
    for (i, c) in s.char_indices().skip(1) {
        if c == '+' || c == '-' {
            let name = s[..i].trim();
            if !is_ident(name) {
                return None;
            }
            let off = parse_int(&s[i..])?;
            return Some((Some(name.to_string()), off));
        }
    }
    if is_ident(s) {
        return Some((Some(s.to_string()), 0));
    }
    None
}

fn reg_of(s: &str) -> Option<(bool, u8)> {
    // Returns (is_addr_reg, number).
    let s = s.trim();
    if s.eq_ignore_ascii_case("sp") {
        return Some((true, 7));
    }
    let mut chars = s.chars();
    let kind = chars.next()?;
    let rest: String = chars.collect();
    let n: u8 = rest.parse().ok()?;
    if n > 7 {
        return None;
    }
    match kind {
        'd' | 'D' => Some((false, n)),
        'a' | 'A' => Some((true, n)),
        _ => None,
    }
}

fn parse_operand(s: &str, line: usize) -> Result<SymOperand, AsmError> {
    let s = s.trim();
    if let Some(imm) = s.strip_prefix('#') {
        return match parse_sym_expr(imm) {
            Some((None, v)) => Ok(SymOperand::Ready(Operand::Imm(v as u32))),
            Some((Some(name), off)) => Ok(SymOperand::ImmSym(name, off)),
            None => err(line, format!("bad immediate `{s}`")),
        };
    }
    if let Some((is_a, r)) = reg_of(s) {
        return Ok(SymOperand::Ready(if is_a {
            Operand::AReg(r)
        } else {
            Operand::DReg(r)
        }));
    }
    if let Some(body) = s.strip_prefix("-(") {
        let body = body.strip_suffix(')').ok_or_else(|| AsmError {
            line,
            message: format!("bad operand `{s}`"),
        })?;
        return match reg_of(body) {
            Some((true, r)) => Ok(SymOperand::Ready(Operand::PreDec(r))),
            _ => err(
                line,
                format!("pre-decrement needs an address register: `{s}`"),
            ),
        };
    }
    if let Some(body) = s.strip_suffix(")+") {
        let body = body.strip_prefix('(').ok_or_else(|| AsmError {
            line,
            message: format!("bad operand `{s}`"),
        })?;
        return match reg_of(body) {
            Some((true, r)) => Ok(SymOperand::Ready(Operand::PostInc(r))),
            _ => err(
                line,
                format!("post-increment needs an address register: `{s}`"),
            ),
        };
    }
    if s.ends_with(')') {
        let open = s.rfind('(').ok_or_else(|| AsmError {
            line,
            message: format!("bad operand `{s}`"),
        })?;
        let inner = &s[open + 1..s.len() - 1];
        let prefix = s[..open].trim();
        let r = match reg_of(inner) {
            Some((true, r)) => r,
            _ => {
                return err(
                    line,
                    format!("indirection needs an address register: `{s}`"),
                );
            }
        };
        if prefix.is_empty() {
            return Ok(SymOperand::Ready(Operand::Ind(r)));
        }
        return match parse_sym_expr(prefix) {
            Some((None, v)) => Ok(SymOperand::Ready(Operand::IndDisp(r, v as i32))),
            Some((Some(name), off)) => Ok(SymOperand::DispSym(name, off, r)),
            None => err(line, format!("bad displacement `{prefix}`")),
        };
    }
    // Bare symbol or number: absolute address.
    match parse_sym_expr(s) {
        Some((None, v)) => Ok(SymOperand::Ready(Operand::Abs(v as u32))),
        Some((Some(name), off)) => Ok(SymOperand::AbsSym(name, off)),
        None => err(line, format!("bad operand `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, StepEvent};
    use crate::mem::MemoryLayout;

    fn run_to_trap(obj: &Object, max: usize) -> Cpu {
        let mut mem = obj.to_memory();
        let mut cpu = Cpu::at_entry(obj.entry);
        for _ in 0..max {
            match cpu.step(&mut mem, IsaLevel::Isa2) {
                StepEvent::Executed { .. } => {}
                StepEvent::Trap { .. } => return cpu,
                StepEvent::Faulted(f) => panic!("fault: {f:?} at pc={:#x}", cpu.pc),
            }
        }
        panic!("did not reach trap in {max} steps");
    }

    #[test]
    fn assemble_and_run_counting_loop() {
        let obj = assemble(
            r"
            | Count to 10 in d1, sum in d2.
            start:  move.l  #0, d1
            loop:   add.l   #1, d1
                    add.l   d1, d2
                    cmp.l   #10, d1
                    blt     loop
                    trap    #0
            ",
        )
        .expect("assemble");
        let cpu = run_to_trap(&obj, 200);
        assert_eq!(cpu.d[1], 10);
        assert_eq!(cpu.d[2], 55);
    }

    #[test]
    fn data_section_symbols_resolve() {
        let obj = assemble(
            r#"
            start:  move.l  counter, d0
                    add.l   #1, d0
                    move.l  d0, counter
                    lea     msg, a0
                    move.b  (a0), d3
                    trap    #0
                    .data
            counter:.long   41
            msg:    .asciz  "Zebra"
            "#,
        )
        .expect("assemble");
        let cpu = run_to_trap(&obj, 50);
        assert_eq!(cpu.d[0], 42);
        assert_eq!(cpu.d[3] & 0xff, b'Z' as u32);
        let counter_addr = obj.symbol("counter").unwrap();
        assert!(counter_addr >= obj.data_base());
    }

    #[test]
    fn bss_reserves_zeroed_space() {
        let obj = assemble(
            r"
            start:  lea     buf, a1
                    move.l  (a1), d0
                    trap    #0
                    .bss
            buf:    .space  64
            ",
        )
        .expect("assemble");
        assert_eq!(obj.bss_len, 64);
        let cpu = run_to_trap(&obj, 10);
        assert_eq!(cpu.d[0], 0);
    }

    #[test]
    fn equ_and_char_literals() {
        let obj = assemble(
            r"
                    .equ    EXIT, 1
            start:  move.l  #EXIT, d0
                    move.b  #'A', d1
                    move.b  #'\n', d2
                    trap    #0
            ",
        )
        .expect("assemble");
        let cpu = run_to_trap(&obj, 10);
        assert_eq!(cpu.d[0], 1);
        assert_eq!(cpu.d[1] & 0xff, b'A' as u32);
        assert_eq!(cpu.d[2] & 0xff, b'\n' as u32);
    }

    #[test]
    fn addressing_modes_parse() {
        let obj = assemble(
            r"
            start:  lea     table, a0
                    move.l  #1, (a0)
                    move.l  #2, 4(a0)
                    move.l  (a0)+, d0
                    move.l  (a0), d1
                    move.l  d0, -(sp)
                    move.l  (sp)+, d2
                    trap    #0
                    .data
            table:  .space  16
            ",
        )
        .expect("assemble");
        let cpu = run_to_trap(&obj, 20);
        assert_eq!(cpu.d[0], 1);
        assert_eq!(cpu.d[1], 2);
        assert_eq!(cpu.d[2], 1);
        assert_eq!(cpu.sp(), MemoryLayout::STACK_TOP);
    }

    #[test]
    fn isa2_source_marks_required_level() {
        let obj = assemble("start: extb2 d0\n trap #0\n").unwrap();
        assert_eq!(obj.required_isa, IsaLevel::Isa2);
        let obj1 = assemble("start: nop\n trap #0\n").unwrap();
        assert_eq!(obj1.required_isa, IsaLevel::Isa1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("start: nop\n bogus d0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble(" move.l #1, d0\n bra nowhere\n trap #0\n").unwrap_err();
        assert!(e.message.contains("undefined symbol"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn unknown_section_errors_instead_of_panicking() {
        // Regression: an unknown section name (or a stray opening
        // `.section`) must come back as an AsmError with the offending
        // line, never a panic out of `assemble`.
        let e = assemble("start: nop\n .section mystery\n nop\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("mystery"), "names the section: {e}");

        let e = assemble(".section\nstart: nop\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("needs a name"), "got: {e}");

        let e = assemble(".rodata\nstart: nop\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown directive"), "got: {e}");
    }

    #[test]
    fn section_directive_is_equivalent_to_the_short_forms() {
        let via_section =
            assemble(".section .text\nstart: move.l x, d0\n trap #0\n.section data\nx: .long 7\n")
                .unwrap();
        let via_short =
            assemble(".text\nstart: move.l x, d0\n trap #0\n.data\nx: .long 7\n").unwrap();
        assert_eq!(via_section.text, via_short.text);
        assert_eq!(via_section.data, via_short.data);
    }

    #[test]
    fn nonzero_bss_data_reports_the_offending_line() {
        // `.asciz` in .bss slips past the directive-time zero check
        // (the terminator is zero but the payload is not) and used to
        // be reported with no line context.
        let e = assemble("start: nop\n trap #0\n .bss\nmsg: .asciz \"hi\"\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains(".bss"), "got: {e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let obj =
            assemble("| leading comment\n\nstart: nop ; trailing\n trap #0 | done\n").unwrap();
        assert!(!obj.text.is_empty());
    }

    #[test]
    fn symbol_plus_offset() {
        let obj = assemble(
            r"
            start:  move.l  vec+4, d0
                    trap    #0
                    .data
            vec:    .long   10, 20, 30
            ",
        )
        .unwrap();
        let cpu = run_to_trap(&obj, 10);
        assert_eq!(cpu.d[0], 20);
    }

    #[test]
    fn jsr_with_stack_locals() {
        let obj = assemble(
            r"
            start:  move.l  #5, d1
                    jsr     double
                    trap    #0
            double: move.l  d1, -(sp)
                    add.l   d1, d1
                    move.l  (sp)+, d4
                    rts
            ",
        )
        .unwrap();
        let cpu = run_to_trap(&obj, 20);
        assert_eq!(cpu.d[1], 10);
        assert_eq!(cpu.d[4], 5);
    }
}
