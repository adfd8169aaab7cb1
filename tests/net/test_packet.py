"""Unit tests for packets and ECN codepoint semantics."""

import pytest

from repro.net.packet import DEFAULT_MSS, ECN, HEADER_BYTES, Packet
from tests.conftest import make_packet


class TestECN:
    def test_codepoint_values_match_rfc3168(self):
        assert ECN.NOT_ECT == 0b00
        assert ECN.ECT1 == 0b01
        assert ECN.ECT0 == 0b10
        assert ECN.CE == 0b11

    @pytest.mark.parametrize("cp", [ECN.ECT0, ECN.ECT1, ECN.CE])
    def test_ecn_capable_codepoints(self, cp):
        assert cp.ecn_capable

    def test_not_ect_is_not_capable(self):
        assert not ECN.NOT_ECT.ecn_capable


class TestPacket:
    def test_default_size_is_mss_plus_headers(self):
        assert Packet(flow_id=0).size == DEFAULT_MSS + HEADER_BYTES

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(flow_id=0, size=0)

    def test_nan_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, float("nan"))

    def test_ect_preserved_from_ecn(self):
        pkt = make_packet(ecn=ECN.ECT1)
        assert pkt.ect is ECN.ECT1

    def test_not_ect_keeps_not_ect_ect(self):
        assert make_packet(ecn=ECN.NOT_ECT).ect is ECN.NOT_ECT


class TestMarking:
    def test_mark_ce_on_ect0(self):
        pkt = make_packet(ecn=ECN.ECT0)
        pkt.mark_ce()
        assert pkt.ecn is ECN.CE

    def test_mark_ce_preserves_original_ect(self):
        pkt = make_packet(ecn=ECN.ECT1)
        pkt.mark_ce()
        assert pkt.ect is ECN.ECT1

    def test_mark_not_ect_raises(self):
        pkt = make_packet(ecn=ECN.NOT_ECT)
        with pytest.raises(ValueError):
            pkt.mark_ce()

    def test_double_marking_is_allowed(self):
        pkt = make_packet(ecn=ECN.ECT0)
        pkt.mark_ce()
        pkt.mark_ce()
        assert pkt.ecn is ECN.CE


class TestClassifier:
    """Figure 9's classifier: ECT(1) or CE-from-ECT(1) → Scalable."""

    def test_ect1_is_scalable(self):
        assert make_packet(ecn=ECN.ECT1).is_scalable

    def test_ect0_is_classic(self):
        assert not make_packet(ecn=ECN.ECT0).is_scalable

    def test_not_ect_is_classic(self):
        assert not make_packet(ecn=ECN.NOT_ECT).is_scalable

    def test_ce_marked_scalable_stays_scalable(self):
        pkt = make_packet(ecn=ECN.ECT1)
        pkt.mark_ce()
        assert pkt.is_scalable

    def test_ce_marked_classic_stays_classic(self):
        pkt = make_packet(ecn=ECN.ECT0)
        pkt.mark_ce()
        assert not pkt.is_scalable
