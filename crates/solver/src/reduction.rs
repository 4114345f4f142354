//! Deterministic reductions matching the whole-fabric all-reduce order.
//!
//! §III-C of the paper reduces dot products in a fixed spatial order: each PE first
//! reduces its own z-column, rows are then reduced left → right, the right-most
//! column is reduced top → bottom, and the result is broadcast back.  Floating-point
//! addition is not associative, so reproducing *the same order* on the host is what
//! allows bit-for-bit comparison between the fabric execution and the host oracle.
//!
//! [`fabric_ordered_dot`] implements exactly that order on [`CellField`]s: the host
//! oracle of the fabric all-reduce.

use mffv_mesh::{CellField, Scalar};

/// Sum the per-cell products `a_i · b_i` in fabric all-reduce order:
/// z within each PE column, then columns left → right within each fabric row, then
/// fabric rows top → bottom.
pub fn fabric_ordered_dot<T: Scalar>(a: &CellField<T>, b: &CellField<T>) -> T {
    assert_eq!(a.dims(), b.dims(), "field dimension mismatch");
    let dims = a.dims();
    let mut total = T::ZERO;
    for y in 0..dims.ny {
        let mut row_acc = T::ZERO;
        for x in 0..dims.nx {
            // Per-PE partial: reduce the z-column locally first.
            let col_a = a.column(x, y);
            let col_b = b.column(x, y);
            let mut pe_acc = T::ZERO;
            for (va, vb) in col_a.iter().zip(col_b.iter()) {
                pe_acc = va.mul_add(*vb, pe_acc);
            }
            // Row reduction: values flow left → right, accumulating on the east side.
            row_acc += pe_acc;
        }
        // Column reduction on the right-most fabric column: top → bottom.
        total += row_acc;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_mesh::Dims;
    use proptest::prelude::*;

    #[test]
    fn fabric_dot_matches_field_dot_in_f64() {
        let dims = Dims::new(5, 4, 3);
        let a = CellField::<f64>::from_fn(dims, |c| (c.x as f64) - 0.5 * (c.z as f64));
        let b = CellField::<f64>::from_fn(dims, |c| 1.0 + (c.y as f64) * 0.25);
        let expected = a.dot(&b);
        let got = fabric_ordered_dot(&a, &b);
        assert!((expected - got).abs() < 1e-9 * expected.abs().max(1.0));
    }

    proptest! {
        #[test]
        fn fabric_dot_is_close_to_the_field_dot(values in proptest::collection::vec(-1.0f64..1.0, 60)) {
            let dims = Dims::new(5, 4, 3);
            let a = CellField::from_vec(dims, values);
            let b = CellField::from_fn(dims, |c| 0.1 * (c.x as f64 + c.y as f64 + c.z as f64));
            let d1 = fabric_ordered_dot(&a, &b);
            let d2 = a.dot(&b);
            prop_assert!((d1 - d2).abs() < 1e-10);
        }
    }
}
