//! Per-PE routers: per-colour routes, switch positions and ring mode.
//!
//! The paper programs each router with two switch positions per colour and toggles
//! between them with control commands (Listing 1, Figure 4): position 0 makes the PE
//! the root of a broadcast (`rx = RAMP, tx = EAST`), position 1 makes it a receiver
//! (`rx = WEST, tx = RAMP`), and ring mode wraps the position counter so alternating
//! send/receive roles only ever need "advance" commands.

use crate::color::{Color, NUM_ROUTABLE_COLORS};
use crate::error::FabricError;
use crate::geometry::{PeId, Port};

/// One switch position of one colour: which incoming ports are accepted and which
/// outgoing ports the wavelet is forwarded to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterRule {
    /// Accepted input ports.
    pub rx: Vec<Port>,
    /// Output ports the wavelet is replicated onto.
    pub tx: Vec<Port>,
}

impl RouterRule {
    /// Build a rule.
    pub fn new(rx: &[Port], tx: &[Port]) -> Self {
        Self {
            rx: rx.to_vec(),
            tx: tx.to_vec(),
        }
    }

    /// Whether a wavelet entering through `port` is accepted by this rule.
    pub fn accepts(&self, port: Port) -> bool {
        self.rx.contains(&port)
    }
}

/// The full per-colour configuration: an ordered list of switch positions, the ring
/// mode flag and the current position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchConfig {
    positions: Vec<RouterRule>,
    ring_mode: bool,
    current: usize,
}

impl SwitchConfig {
    /// A configuration with a single, fixed position (no switching).
    pub fn fixed(rule: RouterRule) -> Self {
        Self {
            positions: vec![rule],
            ring_mode: false,
            current: 0,
        }
    }

    /// A configuration with multiple switch positions.
    pub fn switched(positions: Vec<RouterRule>, ring_mode: bool) -> Self {
        assert!(
            !positions.is_empty(),
            "at least one switch position is required"
        );
        Self {
            positions,
            ring_mode,
            current: 0,
        }
    }

    /// The paper's Listing-1 broadcast pattern towards `direction`:
    /// position 0 = sender (`rx = RAMP, tx = direction`),
    /// position 1 = receiver (`rx = opposite(direction), tx = RAMP`), ring mode on.
    pub fn listing1_broadcast(direction: Port) -> Self {
        assert!(
            direction != Port::Ramp,
            "broadcast direction must be a cardinal port"
        );
        Self::switched(
            vec![
                RouterRule::new(&[Port::Ramp], &[direction]),
                RouterRule::new(&[direction.entry_on_neighbor()], &[Port::Ramp]),
            ],
            true,
        )
    }

    /// Same as [`SwitchConfig::listing1_broadcast`] but starting in the receiver
    /// position (the even/odd PEs of Table I start in opposite roles).
    pub fn listing1_broadcast_receiver_first(direction: Port) -> Self {
        let mut cfg = Self::listing1_broadcast(direction);
        cfg.current = 1;
        cfg
    }

    /// The currently selected rule.
    pub fn current_rule(&self) -> &RouterRule {
        &self.positions[self.current]
    }

    /// The index of the current position.
    pub fn current_position(&self) -> usize {
        self.current
    }

    /// Advance to the next switch position.  With ring mode the position wraps
    /// around; without it, the position saturates at the last entry (matching the
    /// hardware behaviour of a non-ring switch chain).
    pub fn advance(&mut self) {
        if self.current + 1 < self.positions.len() {
            self.current += 1;
        } else if self.ring_mode {
            self.current = 0;
        }
    }
}

/// The router of one PE: a per-colour table of switch configurations.
#[derive(Clone, Debug)]
pub struct Router {
    pe: PeId,
    configs: Vec<Option<SwitchConfig>>,
}

impl Router {
    /// A router with no colours configured.
    pub fn new(pe: PeId) -> Self {
        Self {
            pe,
            configs: vec![None; NUM_ROUTABLE_COLORS as usize],
        }
    }

    /// The PE this router belongs to.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Install (or replace) the configuration of a colour — the simulator's
    /// equivalent of CSL's `set_router_config`.
    pub fn set_color_config(&mut self, color: Color, config: SwitchConfig) {
        self.configs[color.index()] = Some(config);
    }

    /// The configuration of a colour, if programmed.
    pub fn color_config(&self, color: Color) -> Option<&SwitchConfig> {
        self.configs[color.index()].as_ref()
    }

    /// Advance the switch position of a colour (the effect of a control wavelet /
    /// `fabric_control` write).  Returns an error if the colour is not programmed.
    pub fn advance_switch(&mut self, color: Color) -> Result<(), FabricError> {
        match &mut self.configs[color.index()] {
            Some(cfg) => {
                cfg.advance();
                Ok(())
            }
            None => Err(FabricError::NoRouteConfigured { pe: self.pe, color }),
        }
    }

    /// Route a wavelet of `color` entering through `incoming`: returns the output
    /// ports it is forwarded to.  Errors if the colour is not programmed or the
    /// current switch position does not accept the incoming port.
    pub fn route(&self, color: Color, incoming: Port) -> Result<Vec<Port>, FabricError> {
        let cfg = self.configs[color.index()]
            .as_ref()
            .ok_or(FabricError::NoRouteConfigured { pe: self.pe, color })?;
        let rule = cfg.current_rule();
        if !rule.accepts(incoming) {
            return Err(FabricError::RouteRejected {
                pe: self.pe,
                color,
                incoming,
            });
        }
        Ok(rule.tx.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_config_routes_and_rejects() {
        let mut r = Router::new(PeId::new(0, 0));
        let c = Color::new(0);
        r.set_color_config(
            c,
            SwitchConfig::fixed(RouterRule::new(&[Port::Ramp], &[Port::East])),
        );
        assert_eq!(r.route(c, Port::Ramp).unwrap(), vec![Port::East]);
        assert!(matches!(
            r.route(c, Port::West),
            Err(FabricError::RouteRejected { .. })
        ));
        assert!(matches!(
            r.route(Color::new(1), Port::Ramp),
            Err(FabricError::NoRouteConfigured { .. })
        ));
    }

    #[test]
    fn listing1_pattern_alternates_sender_and_receiver() {
        let mut cfg = SwitchConfig::listing1_broadcast(Port::East);
        // Position 0: sender.
        assert!(cfg.current_rule().accepts(Port::Ramp));
        assert_eq!(cfg.current_rule().tx, vec![Port::East]);
        cfg.advance();
        // Position 1: receiver (wavelets from the West land on the ramp).
        assert!(cfg.current_rule().accepts(Port::West));
        assert_eq!(cfg.current_rule().tx, vec![Port::Ramp]);
        // Ring mode wraps back to the sender position.
        cfg.advance();
        assert_eq!(cfg.current_position(), 0);
    }

    #[test]
    fn receiver_first_variant_starts_at_position_one() {
        let cfg = SwitchConfig::listing1_broadcast_receiver_first(Port::North);
        assert_eq!(cfg.current_position(), 1);
        assert!(cfg.current_rule().accepts(Port::South));
    }

    #[test]
    fn non_ring_switch_saturates() {
        let mut cfg = SwitchConfig::switched(
            vec![
                RouterRule::new(&[Port::Ramp], &[Port::East]),
                RouterRule::new(&[Port::West], &[Port::Ramp]),
            ],
            false,
        );
        cfg.advance();
        cfg.advance();
        cfg.advance();
        assert_eq!(cfg.current_position(), 1);
    }

    #[test]
    fn advance_switch_via_router() {
        let mut r = Router::new(PeId::new(1, 1));
        let c = Color::new(2);
        r.set_color_config(c, SwitchConfig::listing1_broadcast(Port::South));
        assert_eq!(r.color_config(c).unwrap().current_position(), 0);
        r.advance_switch(c).unwrap();
        assert_eq!(r.color_config(c).unwrap().current_position(), 1);
        assert!(r.advance_switch(Color::new(9)).is_err());
    }

    #[test]
    #[should_panic]
    fn broadcast_towards_ramp_is_rejected() {
        let _ = SwitchConfig::listing1_broadcast(Port::Ramp);
    }
}
