"""Fungible datapath handle tests."""

import pytest

from repro.core.datapath import FungibleDatapath
from repro.errors import ControlPlaneError


class TestStatus:
    def test_uncompiled_datapath_rejects_status(self):
        datapath = FungibleDatapath(name="d")
        with pytest.raises(ControlPlaneError, match="not compiled"):
            datapath.status()

    def test_status_fields(self, flexnet):
        status = flexnet.datapath.status()
        assert status.program_version == flexnet.program.version
        assert set(status.placement) == set(flexnet.program.element_names)
        assert status.estimated_latency_ns > 0

    def test_components_on_device(self, flexnet):
        components = flexnet.datapath.require_plan().elements_on("sw1")
        assert "acl" in components

    def test_device_of_component(self, flexnet):
        assert flexnet.datapath.device_of("acl") == "sw1"

    def test_device_of_unknown_component(self, flexnet):
        with pytest.raises(Exception):
            flexnet.datapath.device_of("ghost")
