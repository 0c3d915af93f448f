//! Verilog emission: synthesizable skeletons of the paper's datapath
//! primitives, plus golden test vectors generated by the **bit-exact
//! Rust models** so the RTL can be verified in any simulator.
//!
//! The original artifact "is coded using hardware description language
//! (HDL)"; this environment has no HDL toolchain, so the reproduction
//! inverts the flow: the Rust datapath is the golden model, and this
//! module renders the matching RTL —
//!
//! * [`emit_pe`] — the INT8 MAC processing element (registered
//!   operand pass-through, 32-bit accumulator, output-stationary);
//! * [`emit_systolic_array`] — the parametric `ROWS × COLS` array with
//!   generate loops and column-serial drain mux;
//! * [`emit_exp_unit`] / [`emit_ln_unit`] — the shift-add EXP/LN units,
//!   bit-for-bit the same arithmetic as [`fixedmath::explog`];
//! * [`emit_rsqrt_rom`] — the 192-entry `x^(-1/2)` ROM with the exact
//!   table contents of [`fixedmath::rsqrt`];
//! * [`golden_exp_vectors`] / [`golden_ln_vectors`] — stimulus/response
//!   files (hex, one pair per line) produced by the Rust units.
//!
//! Tests assert structural properties of the emitted text and that the
//! golden vectors are reproducible; anyone with Icarus/Verilator can
//! close the loop against silicon-grade simulation.

use std::fmt::Write as _;

use fixedmath::explog::{exp_unit, ln_unit};
use fixedmath::fx::FRAC;

/// Emits the INT8 multiply-accumulate processing element.
pub(crate) fn emit_pe() -> String {
    String::from(
        r#"// Auto-generated by transformer-accel (accel::rtl). Do not edit.
// INT8 output-stationary MAC PE: operands register through to the
// east/south neighbours; the 32-bit accumulator clears on `clr`.
module pe (
    input  wire               clk,
    input  wire               rst,
    input  wire               clr,
    input  wire               en,
    input  wire signed [7:0]  a_in,
    input  wire               a_valid_in,
    input  wire signed [7:0]  b_in,
    input  wire               b_valid_in,
    output reg  signed [7:0]  a_out,
    output reg                a_valid_out,
    output reg  signed [7:0]  b_out,
    output reg                b_valid_out,
    output reg  signed [31:0] acc
);
    always @(posedge clk) begin
        if (rst) begin
            a_out <= 8'sd0;  a_valid_out <= 1'b0;
            b_out <= 8'sd0;  b_valid_out <= 1'b0;
            acc   <= 32'sd0;
        end else begin
            if (clr) acc <= 32'sd0;
            else if (en && a_valid_in && b_valid_in)
                acc <= acc + a_in * b_in;
            a_out <= a_in;  a_valid_out <= a_valid_in;
            b_out <= b_in;  b_valid_out <= b_valid_in;
        end
    end
endmodule
"#,
    )
}

/// Emits the parametric `rows × cols` systolic array (Fig. 5's SA
/// module) with a column-serial drain port.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub(crate) fn emit_systolic_array(rows: usize, cols: usize) -> String {
    assert!(rows > 0 && cols > 0, "array dimensions must be positive");
    format!(
        r#"// Auto-generated by transformer-accel (accel::rtl). Do not edit.
// {rows} x {cols} output-stationary INT8 systolic array. A streams from
// the west (one value per row per cycle, pre-skewed by the feeder), B
// from the north; the product drains column by column through
// `drain_col` ("output the product matrix column by column").
module systolic_array #(
    parameter ROWS = {rows},
    parameter COLS = {cols}
) (
    input  wire                        clk,
    input  wire                        rst,
    input  wire                        clr,
    input  wire                        en,
    input  wire signed [8*ROWS-1:0]    a_west,
    input  wire        [ROWS-1:0]      a_valid_west,
    input  wire signed [8*COLS-1:0]    b_north,
    input  wire        [COLS-1:0]      b_valid_north,
    input  wire [$clog2(COLS)-1:0]     drain_col,
    output wire signed [32*ROWS-1:0]   drain_data
);
    // operand meshes
    wire signed [7:0] a_bus   [0:ROWS-1][0:COLS];
    wire              a_vbus  [0:ROWS-1][0:COLS];
    wire signed [7:0] b_bus   [0:ROWS][0:COLS-1];
    wire              b_vbus  [0:ROWS][0:COLS-1];
    wire signed [31:0] acc    [0:ROWS-1][0:COLS-1];

    genvar r, c;
    generate
        for (r = 0; r < ROWS; r = r + 1) begin : west_edge
            assign a_bus[r][0]  = a_west[8*r +: 8];
            assign a_vbus[r][0] = a_valid_west[r];
        end
        for (c = 0; c < COLS; c = c + 1) begin : north_edge
            assign b_bus[0][c]  = b_north[8*c +: 8];
            assign b_vbus[0][c] = b_valid_north[c];
        end
        for (r = 0; r < ROWS; r = r + 1) begin : row
            for (c = 0; c < COLS; c = c + 1) begin : col
                pe u_pe (
                    .clk(clk), .rst(rst), .clr(clr), .en(en),
                    .a_in(a_bus[r][c]),   .a_valid_in(a_vbus[r][c]),
                    .b_in(b_bus[r][c]),   .b_valid_in(b_vbus[r][c]),
                    .a_out(a_bus[r][c+1]), .a_valid_out(a_vbus[r][c+1]),
                    .b_out(b_bus[r+1][c]), .b_valid_out(b_vbus[r+1][c]),
                    .acc(acc[r][c])
                );
            end
        end
        for (r = 0; r < ROWS; r = r + 1) begin : drain
            assign drain_data[32*r +: 32] = acc[r][drain_col];
        end
    endgenerate
endmodule
"#
    )
}

/// Emits the shift-add EXP unit (`exp(x) = 2^(x·log2 e)` with
/// `x·log2 e ≈ x + x>>1 − x>>4` and `2^f ≈ 1 + f`), Q19.12 in/out —
/// the exact arithmetic of [`fixedmath::explog::exp_unit`].
pub(crate) fn emit_exp_unit() -> String {
    format!(
        r#"// Auto-generated by transformer-accel (accel::rtl). Do not edit.
// Matches fixedmath::explog::exp_unit bit-for-bit (Q19.{frac}, x <= 0).
module exp_unit (
    input  wire signed [31:0] x,
    output wire signed [31:0] y
);
    wire signed [31:0] x_clamped = (x > 0) ? 32'sd0 : x;
    // y_log2 = x * log2(e) ~= x + (x >>> 1) - (x >>> 4)
    wire signed [31:0] y_log2 = x_clamped + (x_clamped >>> 1) - (x_clamped >>> 4);
    // split into integer exponent k (<= 0) and fraction f in [0, 2^{frac})
    wire signed [31:0] k = y_log2 >>> {frac};
    wire signed [31:0] f = y_log2 - (k <<< {frac});
    wire        [31:0] neg_k = -k;
    // 2^f ~= 1 + f, then shift right by -k (truncating)
    wire signed [31:0] mant = 32'sd{one} + f;
    assign y = (neg_k >= 32'd31) ? 32'sd0 : (mant >>> neg_k[4:0]);
endmodule
"#,
        frac = FRAC,
        one = 1i32 << FRAC,
    )
}

/// Emits the shift-add LN unit (`ln(x) = ln2 · (e + m − 1)` from the
/// leading-one position) — the exact arithmetic of
/// [`fixedmath::explog::ln_unit`].
pub(crate) fn emit_ln_unit() -> String {
    format!(
        r#"// Auto-generated by transformer-accel (accel::rtl). Do not edit.
// Matches fixedmath::explog::ln_unit bit-for-bit (Q19.{frac}, x > 0).
module ln_unit (
    input  wire signed [31:0] x,
    output wire signed [31:0] y
);
    // leading-one detector (priority encoder over 31 bits)
    reg [4:0] p;
    integer i;
    always @* begin
        p = 5'd0;
        for (i = 30; i >= 0; i = i - 1)
            if (x[i] && p == 5'd0) p = i[4:0];
    end
    wire signed [31:0] e = {{27'd0, p}} - 32'sd{frac};
    // mantissa normalised to [ONE, 2*ONE)
    wire signed [31:0] m = (e >= 0) ? (x >>> e[4:0]) : (x <<< (-e));
    wire signed [31:0] log2 = (e <<< {frac}) + (m - 32'sd{one});
    // ln2 ~= 1/2 + 1/8 + 1/16 + 1/128
    assign y = (log2 >>> 1) + (log2 >>> 3) + (log2 >>> 4) + (log2 >>> 7);
endmodule
"#,
        frac = FRAC,
        one = 1i32 << FRAC,
    )
}

/// Emits the `x^(-1/2)` ROM with the exact 192 Q1.15 entries the Rust
/// model uses.
pub(crate) fn emit_rsqrt_rom() -> String {
    let mut body = String::new();
    for i in 0..fixedmath::rsqrt::LUT_ENTRIES {
        // reconstruct the table exactly as fixedmath builds it
        let m = 1.0 + (i as f64 + 0.5) / 64.0;
        let v = (1.0 / m.sqrt() * (1u32 << fixedmath::rsqrt::LUT_FRAC) as f64).round() as u32;
        let _ = writeln!(body, "            8'd{i}: data <= 16'h{v:04x};");
    }
    format!(
        r#"// Auto-generated by transformer-accel (accel::rtl). Do not edit.
// 192-entry Q1.15 reciprocal-square-root mantissa ROM
// (fixedmath::rsqrt, mantissa range [1, 4), midpoint sampled).
module rsqrt_rom (
    input  wire       clk,
    input  wire [7:0] addr,
    output reg [15:0] data
);
    always @(posedge clk) begin
        case (addr)
{body}            default: data <= 16'h0000;
        endcase
    end
endmodule
"#
    )
}

/// Golden stimulus/response vectors for `exp_unit`: one `xxxxxxxx
/// yyyyyyyy` hex pair per line, inputs swept over `[-16, 0]` in Q19.12.
pub(crate) fn golden_exp_vectors(n: usize) -> String {
    assert!(n > 1, "need at least two vectors");
    let lo = fixedmath::fx::to_fx(-16.0, FRAC) as i64;
    let mut out = String::new();
    for i in 0..n {
        let x = (lo - lo * i as i64 / (n as i64 - 1)) as i32; // lo..0
        let y = exp_unit(x);
        let _ = writeln!(out, "{:08x} {:08x}", x as u32, y as u32);
    }
    out
}

/// Golden stimulus/response vectors for `ln_unit`, inputs swept over
/// `(0, 512]` in Q19.12.
pub(crate) fn golden_ln_vectors(n: usize) -> String {
    assert!(n > 1, "need at least two vectors");
    let hi = 512i64 << FRAC;
    let mut out = String::new();
    for i in 0..n {
        let x = (1 + hi * i as i64 / n as i64) as i32;
        let y = ln_unit(x);
        let _ = writeln!(out, "{:08x} {:08x}", x as u32, y as u32);
    }
    out
}

/// Golden vectors for the systolic array: a full GEMM expressed as the
/// per-cycle, pre-skewed edge stimulus the `systolic_array` module
/// expects, with the expected accumulator matrix appended.
///
/// Format (all hex):
///
/// ```text
/// # rows=R cols=C k=K cycles=T
/// <T lines>   a_valid a_bytes(R)   b_valid b_bytes(C)
/// # expected accumulators, row-major
/// <R lines>   C words of 8 hex digits
/// ```
///
/// The stimulus and expectation are produced by the register-true Rust
/// simulation, so a matching RTL simulation must agree bit-for-bit.
pub(crate) fn golden_gemm_vectors(rows: usize, k: usize, cols: usize, seed: u64) -> String {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = tensor::init::uniform_i8(&mut rng, rows, k);
    let b = tensor::init::uniform_i8(&mut rng, k, cols);
    let sim = crate::systolic::SystolicArray::new(rows, cols).simulate(&a, &b);

    let cycles = k + rows + cols - 2;
    let mut out = String::new();
    let _ = writeln!(out, "# rows={rows} cols={cols} k={k} cycles={cycles}");
    for t in 0..cycles {
        // west edge: row r injects A[r][t - r]
        let mut a_valid = 0u64;
        let mut a_bytes = String::new();
        for r in 0..rows {
            let idx = t as i64 - r as i64;
            if (0..k as i64).contains(&idx) {
                a_valid |= 1 << r;
                let _ = write!(a_bytes, "{:02x}", a[(r, idx as usize)] as u8);
            } else {
                let _ = write!(a_bytes, "00");
            }
        }
        // north edge: column c injects B[t - c][c]
        let mut b_valid = 0u64;
        let mut b_bytes = String::new();
        for c in 0..cols {
            let idx = t as i64 - c as i64;
            if (0..k as i64).contains(&idx) {
                b_valid |= 1 << c;
                let _ = write!(b_bytes, "{:02x}", b[(idx as usize, c)] as u8);
            } else {
                let _ = write!(b_bytes, "00");
            }
        }
        let _ = writeln!(out, "{a_valid:016x} {a_bytes} {b_valid:016x} {b_bytes}");
    }
    let _ = writeln!(out, "# expected accumulators, row-major");
    for r in 0..rows {
        let mut line = String::new();
        for c in 0..cols {
            let _ = write!(line, "{:08x} ", sim.out[(r, c)] as u32);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// The full RTL bundle: `(file name, contents)` pairs.
pub fn emit_all(s: usize) -> Vec<(String, String)> {
    vec![
        ("pe.v".into(), emit_pe()),
        (
            "systolic_array.v".into(),
            emit_systolic_array(s, crate::partition::PANEL_COLS),
        ),
        ("exp_unit.v".into(), emit_exp_unit()),
        ("ln_unit.v".into(), emit_ln_unit()),
        ("rsqrt_rom.v".into(), emit_rsqrt_rom()),
        ("exp_unit_golden.txt".into(), golden_exp_vectors(1024)),
        ("ln_unit_golden.txt".into(), golden_ln_vectors(1024)),
        (
            "systolic_array_golden.txt".into(),
            golden_gemm_vectors(8, 16, 8, 0x5A5A),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_module_has_expected_interface() {
        let v = emit_pe();
        assert!(v.contains("module pe ("));
        assert!(v.contains("signed [31:0] acc"));
        assert!(v.contains("acc + a_in * b_in"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn array_is_parametric_and_instantiates_pes() {
        let v = emit_systolic_array(64, 64);
        assert!(v.contains("parameter ROWS = 64"));
        assert!(v.contains("parameter COLS = 64"));
        assert!(v.contains("pe u_pe"));
        assert!(v.contains("drain_col"));
    }

    #[test]
    fn exp_unit_mirrors_rust_constants() {
        let v = emit_exp_unit();
        assert!(v.contains(&format!("32'sd{}", 1i32 << FRAC)));
        assert!(v.contains("(x_clamped >>> 1) - (x_clamped >>> 4)"));
    }

    #[test]
    fn ln_unit_has_shift_add_ln2() {
        let v = emit_ln_unit();
        assert!(v.contains("(log2 >>> 1) + (log2 >>> 3) + (log2 >>> 4) + (log2 >>> 7)"));
    }

    #[test]
    fn rom_contains_all_entries_and_matches_rust_lut() {
        let v = emit_rsqrt_rom();
        assert_eq!(v.matches(": data <=").count(), 192 + 1); // + default
                                                             // entry 0: 1/sqrt(1 + 0.5/64) in Q1.15
        let m: f64 = 1.0 + 0.5 / 64.0;
        let want = (1.0 / m.sqrt() * 32768.0f64).round() as u32;
        assert!(v.contains(&format!("8'd0: data <= 16'h{want:04x};")));
    }

    #[test]
    fn golden_vectors_are_deterministic_and_consistent() {
        let a = golden_exp_vectors(64);
        let b = golden_exp_vectors(64);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 64);
        // re-check one line against the Rust unit
        let line = a.lines().next().unwrap();
        let (xs, ys) = line.split_once(' ').unwrap();
        let x = u32::from_str_radix(xs, 16).unwrap() as i32;
        let y = u32::from_str_radix(ys, 16).unwrap() as i32;
        assert_eq!(exp_unit(x), y);
        // final input of the sweep is exactly 0 -> exp(0) = ONE
        let last = a.lines().last().unwrap();
        let (xs, ys) = last.split_once(' ').unwrap();
        assert_eq!(u32::from_str_radix(xs, 16).unwrap(), 0);
        assert_eq!(u32::from_str_radix(ys, 16).unwrap(), (1u32) << FRAC);
    }

    #[test]
    fn ln_vectors_match_rust_unit() {
        let v = golden_ln_vectors(32);
        for line in v.lines() {
            let (xs, ys) = line.split_once(' ').unwrap();
            let x = u32::from_str_radix(xs, 16).unwrap() as i32;
            let y = u32::from_str_radix(ys, 16).unwrap() as i32;
            assert_eq!(ln_unit(x), y);
        }
    }

    #[test]
    fn bundle_lists_every_artifact() {
        let files = emit_all(64);
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 8);
        assert!(names.contains(&"systolic_array.v"));
        assert!(names.contains(&"exp_unit_golden.txt"));
        assert!(names.contains(&"systolic_array_golden.txt"));
        assert!(files.iter().all(|(_, c)| !c.is_empty()));
    }

    #[test]
    fn gemm_vectors_have_consistent_structure() {
        let (rows, k, cols) = (4usize, 6usize, 4usize);
        let v = golden_gemm_vectors(rows, k, cols, 1);
        let lines: Vec<&str> = v.lines().collect();
        let cycles = k + rows + cols - 2;
        // header + stimulus + expectation header + R rows
        assert_eq!(lines.len(), 1 + cycles + 1 + rows);
        assert!(lines[0].contains(&format!("cycles={cycles}")));
        // every stimulus line: valid(16) space bytes(2R) space valid(16) space bytes(2C)
        for line in &lines[1..=cycles] {
            let parts: Vec<&str> = line.split(' ').collect();
            assert_eq!(parts.len(), 4, "{line}");
            assert_eq!(parts[1].len(), 2 * rows);
            assert_eq!(parts[3].len(), 2 * cols);
        }
        // deterministic
        assert_eq!(v, golden_gemm_vectors(rows, k, cols, 1));
        assert_ne!(v, golden_gemm_vectors(rows, k, cols, 2));
    }

    #[test]
    fn gemm_vector_expectations_match_reference_gemm() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (rows, k, cols, seed) = (4usize, 5usize, 3usize, 42u64);
        let v = golden_gemm_vectors(rows, k, cols, seed);
        // regenerate the same operands and check the tail lines
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor::init::uniform_i8(&mut rng, rows, k);
        let b = tensor::init::uniform_i8(&mut rng, k, cols);
        let want = tensor::gemm::matmul_i8(&a, &b).unwrap();
        let lines: Vec<&str> = v.lines().collect();
        let tail = &lines[lines.len() - rows..];
        for (r, line) in tail.iter().enumerate() {
            for (c, word) in line.split(' ').enumerate() {
                let got = u32::from_str_radix(word, 16).unwrap() as i32;
                assert_eq!(got, want[(r, c)], "({r},{c})");
            }
        }
    }
}
