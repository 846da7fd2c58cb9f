package core

import (
	"fmt"
	"io"

	"repro/internal/qlearn"
)

// SaveAgents persists both runtime Q-tables (exit selection and
// incremental decision) — on a real device this is the FRAM write that
// lets learning survive power failures and reboots.
func (r *Runtime) SaveAgents(w io.Writer) error {
	if err := r.ep.ExitAgent.Table.Save(w); err != nil {
		return fmt.Errorf("core: save exit agent: %w", err)
	}
	if err := r.ep.IncrAgent.Table.Save(w); err != nil {
		return fmt.Errorf("core: save incremental agent: %w", err)
	}
	return nil
}

// LoadAgents restores Q-tables saved by SaveAgents. Table geometries must
// match the runtime's configuration.
func (r *Runtime) LoadAgents(rd io.Reader) error {
	exit, err := qlearn.LoadTable(rd)
	if err != nil {
		return fmt.Errorf("core: load exit agent: %w", err)
	}
	incr, err := qlearn.LoadTable(rd)
	if err != nil {
		return fmt.Errorf("core: load incremental agent: %w", err)
	}
	if exit.NumStates != r.ep.ExitAgent.Table.NumStates || exit.NumActions != r.ep.ExitAgent.Table.NumActions {
		return fmt.Errorf("core: exit table is %d×%d, runtime expects %d×%d",
			exit.NumStates, exit.NumActions, r.ep.ExitAgent.Table.NumStates, r.ep.ExitAgent.Table.NumActions)
	}
	if incr.NumStates != r.ep.IncrAgent.Table.NumStates || incr.NumActions != r.ep.IncrAgent.Table.NumActions {
		return fmt.Errorf("core: incremental table is %d×%d, runtime expects %d×%d",
			incr.NumStates, incr.NumActions, r.ep.IncrAgent.Table.NumStates, r.ep.IncrAgent.Table.NumActions)
	}
	r.ep.ExitAgent.Table = exit
	r.ep.IncrAgent.Table = incr
	return nil
}
