package gsdram

// SharePlanTable reports whether two modules read one gather-plan table.
func SharePlanTable(a, b *Module) bool {
	return len(a.plans) > 0 && len(b.plans) > 0 && &a.plans[0] == &b.plans[0]
}
