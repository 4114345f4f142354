//! Whole-fabric All-Reduce (§III-C).
//!
//! Computing α and β in Algorithm 1 requires dot products across every PE on the
//! 2-D fabric.  The paper's three-step algorithm is reproduced exactly:
//!
//! 1. **Row reductions**, left → right: every row's values accumulate on that row's
//!    right-most PE;
//! 2. **Right-most column reduction**, top → bottom: the bottom-right PE ends up
//!    holding the global result;
//! 3. **Broadcast back**: the bottom-right PE broadcasts up the right-most column,
//!    then every PE of that column broadcasts westwards along its row, so every PE
//!    holds the reduced value.
//!
//! The reduction order is deterministic, which is what lets
//! `mffv_solver::reduction::fabric_ordered_dot` reproduce the same floating-point
//! result on the host for bitwise comparison.

use mffv_fabric::error::Result;
use mffv_fabric::router::{RouterRule, SwitchConfig};
use mffv_fabric::{Color, ColorAllocator, Fabric, PeId, Port};

/// Report of one all-reduce invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllReduceReport {
    /// The reduced value (as every PE now holds it).
    pub value: f32,
    /// Messages sent across the fabric.
    pub messages: usize,
    /// The latency-critical hop count: the longest chain of dependent hops
    /// (row length + column length for the reduction, the same again for the
    /// broadcast).
    pub critical_path_hops: usize,
}

/// The whole-fabric all-reduce operator.
#[derive(Clone, Debug)]
pub struct AllReduce {
    /// Colour for the eastward row-reduction hops.
    row_reduce: Color,
    /// Colour for the southward column-reduction hops.
    col_reduce: Color,
    /// Colour for the northward column broadcast.
    col_broadcast: Color,
    /// Colour for the westward row broadcast.
    row_broadcast: Color,
}

impl AllReduce {
    /// Allocate the four colours the collective uses.
    pub fn new(colors: &mut ColorAllocator) -> Result<Self> {
        Ok(Self {
            row_reduce: colors.allocate()?,
            col_reduce: colors.allocate()?,
            col_broadcast: colors.allocate()?,
            row_broadcast: colors.allocate()?,
        })
    }

    /// Reduce one value per PE (summation) and broadcast the result back so every PE
    /// holds it.  `local[fabric.dims().linear(pe)]` is PE `pe`'s contribution; the
    /// returned vector holds the value each PE ends up with (they are all equal).
    pub fn sum(&self, fabric: &mut Fabric, local: &[f32]) -> Result<(Vec<f32>, AllReduceReport)> {
        let dims = fabric.dims();
        assert_eq!(
            local.len(),
            dims.num_pes(),
            "one local value per PE required"
        );
        let (w, h) = (dims.width, dims.height);
        let mut acc: Vec<f32> = local.to_vec();
        let mut report = AllReduceReport::default();

        // Step 1: row reductions, left → right.  Each PE forwards its running
        // partial to its eastern neighbour, which adds it to its own value.
        for y in 0..h {
            for x in 0..w.saturating_sub(1) {
                let src = PeId::new(x, y);
                let dst = PeId::new(x + 1, y);
                let value = acc[dims.linear(src)];
                self.unicast(fabric, src, dst, Port::East, self.row_reduce, value)?;
                report.messages += 1;
                let payload = fabric.take_message(dst, self.row_reduce)?;
                acc[dims.linear(dst)] += payload[0];
                fabric.pe_mut(dst).counters_mut().flops += 1;
            }
        }

        // Step 2: right-most column reduction, top → bottom.
        let right = w - 1;
        for y in 0..h.saturating_sub(1) {
            let src = PeId::new(right, y);
            let dst = PeId::new(right, y + 1);
            let value = acc[dims.linear(src)];
            self.unicast(fabric, src, dst, Port::South, self.col_reduce, value)?;
            report.messages += 1;
            let payload = fabric.take_message(dst, self.col_reduce)?;
            acc[dims.linear(dst)] += payload[0];
            fabric.pe_mut(dst).counters_mut().flops += 1;
        }
        let total = acc[dims.linear(PeId::new(right, h - 1))];

        // Step 3a: broadcast up the right-most column (bottom → top).
        for y in (1..h).rev() {
            let src = PeId::new(right, y);
            let dst = PeId::new(right, y - 1);
            self.unicast(fabric, src, dst, Port::North, self.col_broadcast, total)?;
            report.messages += 1;
            let payload = fabric.take_message(dst, self.col_broadcast)?;
            acc[dims.linear(dst)] = payload[0];
        }
        acc[dims.linear(PeId::new(right, h - 1))] = total;

        // Step 3b: every right-column PE broadcasts westwards along its row.
        for y in 0..h {
            for x in (1..w).rev() {
                let src = PeId::new(x, y);
                let dst = PeId::new(x - 1, y);
                self.unicast(fabric, src, dst, Port::West, self.row_broadcast, total)?;
                report.messages += 1;
                let payload = fabric.take_message(dst, self.row_broadcast)?;
                acc[dims.linear(dst)] = payload[0];
            }
        }

        report.value = total;
        // Reduction critical path: (w−1) eastward hops + (h−1) southward hops; the
        // broadcast retraces the same distance.
        report.critical_path_hops = 2 * ((w - 1) + (h - 1));
        Ok((acc, report))
    }

    /// Dot-product style all-reduce: per-PE partials are provided by the caller
    /// (typically `kernel::local_dot_*`), summed and broadcast.
    pub fn reduce_scalar(
        &self,
        fabric: &mut Fabric,
        local: &[f32],
    ) -> Result<(f32, AllReduceReport)> {
        let (values, report) = self.sum(fabric, local)?;
        Ok((values[0], report))
    }

    fn unicast(
        &self,
        fabric: &mut Fabric,
        src: PeId,
        dst: PeId,
        port: Port,
        color: Color,
        value: f32,
    ) -> Result<()> {
        // Program the minimal sender/receiver route for this hop; the collective
        // reprograms routes as it walks, which keeps the colour budget at four for
        // the whole collective regardless of fabric size.
        fabric.set_color_config(
            src,
            color,
            SwitchConfig::fixed(RouterRule::new(&[Port::Ramp], &[port])),
        );
        fabric.set_color_config(
            dst,
            color,
            SwitchConfig::fixed(RouterRule::new(&[port.entry_on_neighbor()], &[Port::Ramp])),
        );
        fabric.send(src, color, &[value])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffv_fabric::FabricDims;

    fn run_sum(width: usize, height: usize, values: &[f32]) -> (Vec<f32>, AllReduceReport) {
        let mut fabric = Fabric::new(FabricDims::new(width, height));
        let mut colors = ColorAllocator::new();
        let ar = AllReduce::new(&mut colors).unwrap();
        ar.sum(&mut fabric, values).unwrap()
    }

    #[test]
    fn sums_and_broadcasts_to_every_pe() {
        let values: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let (result, report) = run_sum(4, 3, &values);
        let expected: f32 = values.iter().sum();
        assert!(result.iter().all(|&v| v == expected));
        assert_eq!(report.value, expected);
    }

    #[test]
    fn message_count_matches_three_phase_structure() {
        let (w, h) = (5, 4);
        let values = vec![1.0f32; w * h];
        let (_, report) = run_sum(w, h, &values);
        // Row reduce: (w−1)·h, column reduce: h−1, column broadcast: h−1,
        // row broadcast: (w−1)·h.
        let expected = 2 * ((w - 1) * h + (h - 1));
        assert_eq!(report.messages, expected);
        assert_eq!(report.critical_path_hops, 2 * ((w - 1) + (h - 1)));
        assert_eq!(report.value, (w * h) as f32);
    }

    #[test]
    fn single_pe_fabric_is_a_no_op() {
        let (result, report) = run_sum(1, 1, &[42.0]);
        assert_eq!(result, vec![42.0]);
        assert_eq!(report.messages, 0);
        assert_eq!(report.critical_path_hops, 0);
    }

    #[test]
    fn single_row_and_single_column_fabrics() {
        let (result, _) = run_sum(6, 1, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(result.iter().all(|&v| v == 21.0));
        let (result, _) = run_sum(1, 5, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(result.iter().all(|&v| v == 15.0));
    }

    #[test]
    fn reduction_order_matches_host_fabric_ordered_sum() {
        // The per-PE values are chosen so f32 rounding differs between orderings;
        // the fabric result must equal the host helper that mimics the same order.
        let dims = FabricDims::new(3, 3);
        let values: Vec<f32> = (0..9).map(|i| 1.0e7 + (i as f32) * 0.25).collect();
        let mut fabric = Fabric::new(dims);
        let mut colors = ColorAllocator::new();
        let ar = AllReduce::new(&mut colors).unwrap();
        let (result, _) = ar.sum(&mut fabric, &values).unwrap();
        // Reproduce the order: rows left→right, then rightmost column top→bottom.
        let mut row_totals = [0.0f32; 3];
        for y in 0..3 {
            let mut acc = values[y * 3];
            for x in 1..3 {
                acc += values[y * 3 + x];
            }
            row_totals[y] = acc;
        }
        let mut total = row_totals[0];
        for rt in &row_totals[1..] {
            total += rt;
        }
        assert_eq!(result[0], total);
    }

    #[test]
    fn flop_count_matches_number_of_additions() {
        let (w, h) = (4, 4);
        let values = vec![2.0f32; w * h];
        let mut fabric = Fabric::new(FabricDims::new(w, h));
        let mut colors = ColorAllocator::new();
        let ar = AllReduce::new(&mut colors).unwrap();
        ar.sum(&mut fabric, &values).unwrap();
        // One addition per reduction message: (w−1)·h + (h−1).
        let expected = ((w - 1) * h + (h - 1)) as u64;
        assert_eq!(fabric.total_compute().flops, expected);
    }
}
