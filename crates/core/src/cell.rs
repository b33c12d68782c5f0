//! Data cells and address cells (paper §II).

use fifoms_types::{PacketId, Slot};

/// Handle to a [`DataCell`] inside a [`DataCellSlab`](crate::DataCellSlab).
///
/// This is the `pDataCell` pointer of the paper's address-cell structure,
/// realised as a generational slab index: the generation detects
/// use-after-free of a destroyed data cell at `debug_assert!` cost.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DataCellKey {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

/// The stored-once payload record of a packet (paper §II):
///
/// ```text
/// DataCell {
///     binary dataContent;
///     int fanoutCounter;
/// }
/// ```
///
/// In simulation the `dataContent` is represented by the packet identity
/// and arrival slot (fixed-size cells carry no payload the scheduler can
/// observe). `fanout_counter` counts destinations not yet served; the slab
/// destroys the cell when it reaches zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataCell {
    /// Identity of the packet whose content this cell stores.
    pub packet: PacketId,
    /// The packet's arrival slot.
    pub arrival: Slot,
    /// Destinations still to serve.
    pub fanout_counter: u32,
}

/// A destination placeholder queued in one virtual output queue (paper
/// §II):
///
/// ```text
/// AddressCell {
///     int timeStamp;
///     DataCell *pDataCell;
/// }
/// ```
///
/// The `time_stamp` equals the packet's arrival slot and serves two
/// purposes: identifying sibling address cells of one multicast packet
/// (all share the stamp) and acting as the FIFO scheduling weight.
/// Which output the cell addresses is implied by the VOQ holding it.
/// The switch keeps the cells implicitly, as each live packet's remaining
/// destinations; [`VoqSet::cells`](crate::VoqSet::cells) derives them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddressCell {
    /// Arrival slot of the owning packet — the FIFOMS scheduling weight.
    pub time_stamp: Slot,
    /// Pointer to the owning packet's data cell.
    pub data: DataCellKey,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_cells_of_one_packet_share_stamp_and_pointer() {
        let key = DataCellKey {
            index: 3,
            generation: 1,
        };
        let a = AddressCell {
            time_stamp: Slot(9),
            data: key,
        };
        let b = AddressCell {
            time_stamp: Slot(9),
            data: key,
        };
        assert_eq!(a, b);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn data_cell_fields() {
        let d = DataCell {
            packet: PacketId(4),
            arrival: Slot(2),
            fanout_counter: 3,
        };
        assert_eq!(d.fanout_counter, 3);
        assert_eq!(d.packet, PacketId(4));
    }
}
