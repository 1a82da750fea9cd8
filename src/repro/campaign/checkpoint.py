"""Campaign checkpoints: (spec, session state) bundles that survive JSON.

A long grid run must be preemptible: :class:`CampaignCheckpoint` captures
one session's full schedule-determining state — fuzzer LFSR + corpus,
observed coverage, feedback weights, virtual clock, history, detection
LFSR — next to the spec that built it, round-trips through JSON, and
restores into a session whose continued run is **bit-identical** to one
that was never interrupted.  The checkpoint is taken at an iteration
boundary (the only state the session drivers expose); everything else
(DUT core, runner, REF) is rebuilt per iteration and never crosses one.

The same bundle is how the
:class:`~repro.campaign.backends.SupervisedQueueBackend` places a shard
on a worker process (a *full* task carries its checkpoint), and the
same envelope carries what a slice changed back: its ``state`` is then
a :meth:`~repro.campaign.session.CampaignSession.state_dict` taken
since a mark, with the ``base`` it applies to.  A full state is the
change since the empty campaign, so :meth:`CampaignCheckpoint.restore`
loads it into a freshly built session; ``load_state`` decodes and checks
either kind whole before it changes anything, and raises
:class:`CheckpointError` on a state that does not fit.
"""

import contextlib
import json
import os
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignSpec

STATE_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint could not be parsed or validated: truncated/corrupt
    JSON, a non-object payload, state or meta, missing required keys, a
    malformed spec, an unknown format version, or a state that is
    malformed or does not fit the session it is loaded into.  Subclasses
    :class:`ValueError` so pre-existing callers catching the old raw
    errors keep working."""


@dataclass
class CampaignCheckpoint:
    """One campaign frozen at an iteration boundary."""

    spec: CampaignSpec
    state: dict
    version: int = STATE_FORMAT_VERSION
    meta: dict = field(default_factory=dict)  # free-form (labels, notes)

    # -- capture / restore ------------------------------------------------------
    @classmethod
    def capture(cls, session, **meta):
        """Snapshot a running :class:`CampaignSession`."""
        return cls(spec=session.spec, state=session.state_dict(),
                   meta=dict(meta))

    def restore(self, *, bus=None, cache=None):
        """Rebuild the session from the spec, then load the frozen state.

        ``bus``/``cache`` are fresh-construction wiring (a restored shard
        joins the orchestrator's shared bus and layout cache); they carry
        no campaign state, so they do not affect bit-identity.
        """
        from repro.campaign.session import build_session

        session = build_session(self.spec, bus=bus, cache=cache)
        session.load_state(self.state)
        return session

    # -- JSON round-trip --------------------------------------------------------
    def to_dict(self):
        return {
            "version": self.version,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint payload must be an object, got {type(data).__name__}"
            )
        version = data.get("version", STATE_FORMAT_VERSION)
        # bool is an int subclass: ``"version": true`` must not pass as 1.
        if not isinstance(version, int) or isinstance(version, bool):
            raise CheckpointError(
                f"checkpoint version must be an integer, got {version!r}"
            )
        if version < 1:
            raise CheckpointError(
                f"checkpoint version must be at least 1, got {version}"
            )
        if version > STATE_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format v{version} is newer than this code "
                f"(supports up to v{STATE_FORMAT_VERSION})"
            )
        missing = [key for key in ("spec", "state") if key not in data]
        if missing:
            raise CheckpointError(
                f"checkpoint is missing required keys: {', '.join(missing)}"
            )
        meta = data.get("meta", {})
        for key, value in (("state", data["state"]), ("meta", meta)):
            if not isinstance(value, dict):
                raise CheckpointError(
                    f"checkpoint {key} must be an object, got "
                    f"{type(value).__name__}"
                )
        try:
            spec = CampaignSpec.from_dict(data["spec"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint spec is malformed: {exc}") from exc
        return cls(spec=spec, state=data["state"], version=version,
                   meta=dict(meta))

    def to_json(self):
        """Compact JSON string (the worker-queue wire format).

        Every state is a tree of plain values, which cannot contain
        itself, so the encoder skips its circular-reference bookkeeping;
        the text is the same."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          check_circular=False)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint JSON is truncated or corrupt: {exc}"
            ) from exc
        return cls.from_dict(data)

    # -- files ------------------------------------------------------------------
    def save(self, path):
        """Write the checkpoint as indented JSON; returns ``path``.

        The write is atomic: JSON lands in a same-directory temp file
        that is fsynced and then :func:`os.replace`\\ d over ``path``, so
        a crash mid-save (power loss, a killed worker) leaves either the
        complete old checkpoint or the complete new one — never a
        truncated file.
        """
        path = os.fspath(path)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        finally:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
        return path

    @classmethod
    def load(cls, path):
        """Read a saved checkpoint; raises :class:`CheckpointError` on
        truncated/corrupt JSON or an unknown format version."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def checkpoint_session(session, path=None, **meta):
    """Capture a session; optionally persist to ``path`` in one call."""
    checkpoint = CampaignCheckpoint.capture(session, **meta)
    if path is not None:
        checkpoint.save(path)
    return checkpoint


def resume_session(source, *, bus=None, cache=None):
    """Restore a session from a checkpoint, a dict, or a JSON file path."""
    if isinstance(source, CampaignCheckpoint):
        checkpoint = source
    elif isinstance(source, dict):
        checkpoint = CampaignCheckpoint.from_dict(source)
    else:
        checkpoint = CampaignCheckpoint.load(source)
    return checkpoint.restore(bus=bus, cache=cache)
