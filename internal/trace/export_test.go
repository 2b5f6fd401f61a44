package trace

// Find returns the function with the given ID, or nil.
func (t *Trace) Find(id string) *Function {
	for _, f := range t.Functions {
		if f.ID == id {
			return f
		}
	}
	return nil
}
