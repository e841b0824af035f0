"""The monolithic baseline runtime (FloodLight-as-shipped).

Apps run *inside* the controller process: their handlers are registered
directly as controller listeners, so an unhandled exception in any app
crashes the controller and, with it, every other app (Table 1 / §2.1).
A restart re-instantiates every app from its factory -- all app state
is lost, reproducing the state-loss problem of reboot-based recovery
the paper's introduction rules out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.controller.api import AppAPI, Command, HostEntry, TopoView


class MonolithicAPI(AppAPI):
    """Direct in-process controller access (the fate-shared path)."""

    def __init__(self, controller, app_name: str):
        self.controller = controller
        self.app_name = app_name

    def now(self) -> float:
        return self.controller.sim.now

    def emit(self, dpid: int, msg) -> None:
        self.controller.send_to_switch(dpid, msg)

    def topology(self) -> TopoView:
        return self.controller.topology.view()

    def host_location(self, mac: str) -> Optional[HostEntry]:
        return self.controller.devices.location(mac)

    def hosts(self) -> Dict[str, HostEntry]:
        return self.controller.devices.all()

    def switches(self) -> Tuple[int, ...]:
        return tuple(self.controller.connected_dpids())

    def log(self, text: str) -> None:
        pass  # no problem ticket collects a fate-shared app's log

    def counter_inc(self, name: str, delta: int = 1) -> None:
        self.controller.counters.inc(f"{self.app_name}.{name}", delta)


class MonolithicRuntime:
    """Hosts SDN-Apps inside the controller process.

    ``launch_app`` takes a zero-argument factory so that a restart can
    re-instantiate the app (with fresh, empty state).  Pass
    ``auto_restart=True`` to model an operator-scripted watchdog that
    reboots the whole stack ``restart_delay`` seconds after a crash --
    any crash but an operator's upgrade, which ends with its own restart.
    """

    def __init__(self, controller, auto_restart: bool = False,
                 restart_delay: float = 0.5):
        self.controller = controller
        self.auto_restart = auto_restart
        self.restart_delay = restart_delay
        self.app_factories: Dict[str, Callable] = {}
        self.apps: Dict[str, object] = {}
        self.crash_count = 0
        self.restart_count = 0
        controller.crash_callbacks.append(self._on_controller_crash)

    # -- app lifecycle -----------------------------------------------------

    def launch_app(self, factory: Callable) -> object:
        """Instantiate an app from ``factory`` and wire it in."""
        app = factory()
        if app.name in self.apps:
            raise ValueError(f"app {app.name!r} already launched")
        self.app_factories[app.name] = factory
        self._register(app)
        return app

    def _register(self, app) -> None:
        self.apps[app.name] = app
        api = MonolithicAPI(self.controller, app.name)
        app.startup(api)
        # Raw handler registration: no try/except. This IS the
        # fate-sharing relationship.
        self.controller.register_listener(app.name, app.subscriptions, app.handle)

    def app(self, name: str):
        return self.apps.get(name)

    @property
    def is_up(self) -> bool:
        return not self.controller.crashed

    def live_apps(self) -> List[str]:
        """Apps currently able to process events (none, if crashed)."""
        return [] if self.controller.crashed else sorted(self.apps)

    # -- crash / restart ---------------------------------------------------------

    def _on_controller_crash(self, exc: Exception, culprit: str) -> None:
        self.crash_count += 1
        if self.auto_restart and culprit != "operator":
            self.controller.sim.schedule(self.restart_delay, self.restart)

    def restart(self) -> None:
        """Reboot the full stack: fresh controller state, fresh apps.

        All app state is lost -- every app is re-created from its
        factory, exactly as a process reboot would.
        """
        if not self.controller.crashed:
            return
        self.restart_count += 1
        for name in list(self.apps):
            self.controller.unregister_listener(name)
        self.apps.clear()
        # Re-register fresh app instances first so they observe the
        # SwitchJoin events the reboot dispatches.
        for factory in self.app_factories.values():
            self._register(factory())
        self.controller.reboot()
